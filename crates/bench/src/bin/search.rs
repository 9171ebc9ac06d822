//! `orion-bench --bin search` — records the search-policy ablation
//! (see [`orion_bench::search`]) over the canonical seeds as
//! `BENCH_search.json`. `tests/search.rs` gates the run and pins the
//! committed record; re-record it with this bin after an intended
//! change.

use orion_bench::search::{ablation, bandit_config, search_figure, SEEDS};
use orion_gpusim::device::DeviceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let doc = ablation(&DeviceSpec::gtx680(), &SEEDS, bandit_config());
    orion_bench::emit(&search_figure(&doc)?)?;
    Ok(())
}
