//! Head-to-head comparison of DP, IDP(7), IDP(4), SDP and GOO over a
//! batch of Star-Chain-15 queries — a miniature of the paper's
//! Table 1.1 / Figure 1.2.
//!
//! ```text
//! cargo run --release --example compare_optimizers [instances]
//! ```

use sdp::metrics::geometric_mean_ratio;
use sdp::prelude::*;

fn main() {
    let instances: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);

    let catalog = Catalog::paper();
    let generator = QueryGenerator::new(&catalog, Topology::star_chain(15), 0x5d9_2007);
    let optimizer = Optimizer::new(&catalog);

    let algorithms = [
        Algorithm::Dp,
        Algorithm::Idp { k: 7 },
        Algorithm::Idp { k: 4 },
        Algorithm::Sdp(SdpConfig::paper()),
        Algorithm::Goo,
    ];

    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); algorithms.len()];
    let mut costed: Vec<u64> = vec![0; algorithms.len()];
    let mut elapsed: Vec<f64> = vec![0.0; algorithms.len()];

    for k in 0..instances {
        let query = generator.instance(k);
        let dp_cost = optimizer.optimize(&query, Algorithm::Dp).unwrap().cost;
        for (i, &alg) in algorithms.iter().enumerate() {
            let plan = optimizer.optimize(&query, alg).unwrap();
            ratios[i].push((plan.cost / dp_cost).max(1.0));
            costed[i] += plan.stats.plans_costed;
            elapsed[i] += plan.stats.elapsed.as_secs_f64();
        }
    }

    println!("Star-Chain-15, {instances} instances — plan quality vs effort (paper Fig. 1.2):\n");
    println!(
        "{:<8} {:>8} {:>8} {:>10} {:>14} {:>12}",
        "Tech", "rho", "worst", "ideal%", "plans costed", "time (ms)"
    );
    for (i, alg) in algorithms.iter().enumerate() {
        let rho = geometric_mean_ratio(&ratios[i]);
        let worst = ratios[i].iter().cloned().fold(1.0, f64::max);
        let ideal =
            100.0 * ratios[i].iter().filter(|&&r| r <= 1.01).count() as f64 / instances as f64;
        println!(
            "{:<8} {:>8.3} {:>8.2} {:>9.0}% {:>14} {:>12.2}",
            alg.label(),
            rho,
            worst,
            ideal,
            costed[i] / instances,
            1000.0 * elapsed[i] / instances as f64
        );
    }
    println!(
        "\nReading: SDP should sit at rho ≈ 1 with an order of magnitude fewer plans\n\
         costed than DP — the paper's \"knee of the tradeoff\"."
    );
}
