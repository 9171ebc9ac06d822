//! Figure 15: backprop and bfs occupancy curves on GTX680.
fn main() -> Result<(), Box<dyn std::error::Error>> {
    orion_bench::emit(&orion_bench::figures::fig15()?)?;
    Ok(())
}
