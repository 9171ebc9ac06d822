//! Regenerate every table and figure, rewrite EXPERIMENTS.md, and write
//! one `BENCH_<slug>.json` artifact per section with the structured
//! numbers behind the text.
//!
//! ```sh
//! cargo run --release -p orion-bench --bin all_experiments [output.md]
//! ```

use orion_bench::figures;
use orion_gpusim::DeviceSpec;
use std::fmt::Write as _;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "EXPERIMENTS.md".to_string());
    let c2075 = DeviceSpec::c2075();
    let gtx680 = DeviceSpec::gtx680();

    let mut md = String::new();
    writeln!(md, "# EXPERIMENTS — paper vs measured\n")?;
    writeln!(md, "Regenerated by `cargo run --release -p orion-bench --bin all_experiments`.")?;
    writeln!(
        md,
        "Absolute numbers are simulator cycles (not wall-clock); compare shapes and ratios."
    )?;
    writeln!(md, "Structured per-figure data lands next to this file as `BENCH_<slug>.json`.\n")?;

    let sections: Vec<(&str, figures::Figure)> = vec![
        ("Figure 1", figures::fig01()?),
        ("Figure 2", figures::fig02()?),
        ("Table 2", figures::tab02()),
        ("Figure 5", figures::fig05()?),
        ("Figure 10", figures::fig10()?),
        ("Figure 11 (C2075)", figures::fig11(&c2075)?),
        ("Figure 11 (GTX680)", figures::fig11(&gtx680)?),
        ("Table 3", figures::tab03()?),
        ("Figure 12 (C2075)", figures::fig12(&c2075)?),
        ("Figure 12 (GTX680)", figures::fig12(&gtx680)?),
        ("Figure 13", figures::fig13()?),
        ("Figure 14", figures::fig14()?),
        ("Figure 15", figures::fig15()?),
    ];
    for (name, fig) in sections {
        eprintln!("== {name} done ==");
        writeln!(md, "## {name}\n\n```text\n{}```\n", fig.text)?;
        println!("{}", fig.text);
        let artifact = format!("BENCH_{}.json", fig.slug);
        std::fs::write(&artifact, fig.artifact_json()?)?;
        eprintln!("wrote {artifact}");
    }
    std::fs::write(&out_path, md)?;
    eprintln!("wrote {out_path}");
    Ok(())
}
