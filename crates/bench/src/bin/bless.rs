//! Rewrite the golden fixtures under `crates/bench/golden/` from the
//! current code, printing `case: old → new` for every entry that
//! changed. Takes no flags; run it in release (the workload cases
//! simulate real kernels):
//!
//! ```sh
//! cargo run --release -p orion-bench --bin bless
//! ```
//!
//! Re-blessing unchanged code rewrites every file byte for byte, so
//! `git diff` after a bless shows exactly the entries a change moved.

use orion_bench::error::write_file;
use orion_bench::golden::{self, Fixture};
use std::process::ExitCode;

fn main() -> ExitCode {
    for fixture in Fixture::ALL {
        let path = fixture.path();
        // A missing file is an empty fixture: every case is new.
        let old = if path.exists() {
            match golden::read(fixture) {
                Ok(old) => old,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            Vec::new()
        };
        let fresh = golden::record(&fixture.cases());
        let changed = golden::diff(&old, &fresh);
        for line in &changed {
            println!("{line}");
        }
        if let Err(e) = write_file("golden fixture", &path, &golden::render(&fresh)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("{}: {} entries, {} changed", path.display(), fresh.len(), changed.len());
    }
    ExitCode::SUCCESS
}
