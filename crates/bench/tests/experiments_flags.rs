//! The `experiments` harness rejects every `--flag` it does not read: a
//! typo must not silently run the defaults, and a retired flag must not be
//! accepted and ignored.

use std::process::Command;

#[test]
fn unknown_and_retired_flags_exit_2_naming_the_flag() {
    for flag in ["--stratgy=saturation", "--order=toggling", "--threads=2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["smoke", flag])
            .output()
            .expect("run the experiments binary");
        assert_eq!(out.status.code(), Some(2), "{flag}: exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag}: message was {stderr:?}");
        assert!(
            out.stdout.is_empty(),
            "{flag}: nothing may run before the usage error"
        );
    }
}
