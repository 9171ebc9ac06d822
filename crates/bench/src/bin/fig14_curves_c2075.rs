//! Figure 14: gaussian and streamcluster occupancy curves on C2075.
fn main() -> Result<(), Box<dyn std::error::Error>> {
    orion_bench::emit(&orion_bench::figures::fig14()?)?;
    Ok(())
}
