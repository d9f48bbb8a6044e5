//! The multiway skyline pruning function, stand-alone: reproduces the
//! paper's Table 2.2 worked example and shows how the three pairwise
//! skylines interact.
//!
//! ```text
//! cargo run --release --example skyline_pruning
//! ```

use sdp::skyline::multiway::pairwise_skyline_membership;
use sdp::skyline::{pairwise_union_skyline, skyline_sfs};

fn main() {
    // The paper's Prune Group 1: five JCRs from the partition of root
    // hub 1, with feature vectors [Rows, Cost, Selectivity].
    let labels = ["123", "125", "135", "145", "156"];
    let vectors: Vec<Vec<f64>> = vec![
        vec![187_638.0, 49_386.0, 3.9e-5],
        vec![122_879.0, 52_132.0, 1.0e-5],
        vec![242_620.0, 56_021.0, 1.0e-5],
        vec![241_562.0, 55_388.0, 6.65e-6],
        vec![385_375.0, 52_632.0, 4.5e-6],
    ];

    println!("Paper Table 2.2 — multiway skyline pruning of Prune Group 1\n");
    let membership = pairwise_skyline_membership(&vectors);
    // Projection order: (R,C), (R,S), (C,S).
    let rc = &membership[0].1;
    let rs = &membership[1].1;
    let cs = &membership[2].1;

    println!(
        "{:<5} {:>10} {:>8} {:>9}   {:>2} {:>2} {:>2}   verdict",
        "JCR", "Rows", "Cost", "Sel", "RC", "CS", "RS"
    );
    for (i, label) in labels.iter().enumerate() {
        let m = |v: &Vec<usize>| if v.contains(&i) { "Y" } else { "-" };
        let survives = rc.contains(&i) || cs.contains(&i) || rs.contains(&i);
        println!(
            "{:<5} {:>10.0} {:>8.0} {:>9.2e}   {:>2} {:>2} {:>2}   {}",
            label,
            vectors[i][0],
            vectors[i][1],
            vectors[i][2],
            m(rc),
            m(cs),
            m(rs),
            if survives { "survives" } else { "PRUNED" }
        );
    }

    // Why "Option 2"? Compare against the full 3-D skyline (Option 1).
    let option1 = skyline_sfs(&vectors);
    let option2 = pairwise_union_skyline(&vectors);
    let names = |idx: &[usize]| {
        idx.iter()
            .map(|&i| labels[i])
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "\nOption 1 (full-vector skyline) keeps : {}",
        names(&option1)
    );
    println!(
        "Option 2 (pairwise union)       keeps : {}",
        names(&option2)
    );
    println!(
        "\nThe paper picks Option 2: \"the best of both worlds\" — near-Option-1\n\
         plan quality at roughly half the JCRs processed (its Table 2.3)."
    );
}
