//! Quickstart: multiply two polynomials on the CryptoPIM accelerator
//! and read its performance report.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cryptopim::accelerator::CryptoPim;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a paper parameter set. Degree 1024 → NewHope's q = 12289,
    //    16-bit datapath.
    let params = ParamSet::for_degree(1024)?;
    println!("parameters: {params}");

    // 2. Build the accelerator and two inputs.
    let accelerator = CryptoPim::new(&params)?;
    let a = Polynomial::from_coeffs((0..1024).map(|i| i * 3 + 1).collect(), params.q)?;
    let b = Polynomial::from_coeffs((0..1024).map(|i| i * 7 + 2).collect(), params.q)?;

    // 3. Multiply through the simulated PIM datapath.
    let product = accelerator.multiply_product(&a, &b)?;
    let report = accelerator.report()?;
    println!(
        "\nproduct (first 8 coefficients): {:?}",
        &product.coeffs()[..8]
    );
    println!("\n{report}");

    // 4. Cross-check against the software NTT.
    let software = NttMultiplier::new(&params)?;
    assert_eq!(product, software.multiply(&a, &b)?);
    println!("\nverified: accelerator output matches the software NTT ✓");

    // 5. The paper's headline: throughput vs the published FPGA design.
    if let Some(cmp) = baselines::fpga::compare(
        params.n,
        report.pipelined.latency_us,
        report.pipelined.energy_uj,
        report.pipelined.throughput,
    ) {
        println!(
            "vs FPGA [19] at n = {}: {:.1}× throughput, {:.2}× energy",
            cmp.n, cmp.throughput_gain, cmp.energy_ratio
        );
    }
    Ok(())
}
