//! The counting allocator, in a process of its own so that no other
//! test's allocations move the totals.

use std::hint::black_box;

use sdp_perf::alloc::{adopt_client, reset_peak, snapshot, uncounted};

#[test]
fn client_and_other_threads_add_up() {
    adopt_client();
    let before = snapshot();
    let mine = black_box(vec![0u8; 1000]);
    let theirs = std::thread::spawn(|| black_box(vec![0u8; 3000]))
        .join()
        .unwrap();
    let after = snapshot();
    // Spawning a thread allocates too, so these are lower limits.
    assert!(after.calls >= before.calls + 2);
    assert!(after.bytes >= before.bytes + 4000);
    assert!(after.live >= before.live + 4000);

    reset_peak();
    let held = snapshot().live;
    drop(black_box(vec![0u8; 1 << 20]));
    let now = snapshot();
    assert!(now.peak >= held + (1 << 20), "{now:?} after {held}");
    assert_eq!(now.live, held);

    // Freed here, allocated there: the signed halves cancel.
    drop((mine, theirs));
    assert_eq!(snapshot().live, held - 4000);
    assert_eq!(snapshot().calls, now.calls);

    // Nothing is counted while counting is off.
    let quiet = snapshot();
    uncounted(|| drop(black_box(vec![0u8; 512])));
    assert_eq!(snapshot(), quiet);
}
