//! Flag validation in the real `structmine-serve` binary: an unknown tier
//! name exits 2 before any model is loaded, instead of silently serving
//! the tiny test PLM.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn unknown_tier_exits_2_before_loading() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_structmine-serve"))
        .args([
            "--labels",
            "sports,business",
            "--tier",
            "bogus",
            "--port",
            "0",
        ])
        .env("STRUCTMINE_LOG", "info")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn structmine-serve");
    // A server that accepted the tier would load and listen forever.
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("structmine-serve --tier bogus did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown tier 'bogus'"), "{stderr}");
    assert!(!stderr.contains("loading"), "{stderr}");
    assert!(out.stdout.is_empty(), "never reached listening");
}
