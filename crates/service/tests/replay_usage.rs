//! `sdp-service replay` refuses sizes it cannot serve with a usage
//! error (exit 1, the limit named on stderr) before any work starts,
//! rather than panicking deep in the optimizer or serving nonsense.

use std::process::Command;

#[test]
fn out_of_range_sizes_are_usage_errors() {
    let cases: [(&[&str], &str); 2] = [
        // A join graph holds at most 64 relations (`RelSet`'s width).
        (
            &["--shape", "chain", "--relations", "65"],
            "at most 64 relations",
        ),
        // 2^44 MB is 2^64 bytes: one past what a byte budget can hold.
        (&["--memory-mb", "17592186044416"], "at most 17592186044415"),
    ];
    for (args, names) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_sdp-service"))
            .arg("replay")
            .args(args)
            .output()
            .expect("spawn sdp-service");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{args:?} did work before refusing"
        );
    }
}
