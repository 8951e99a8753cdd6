//! Process-level exit codes of `netcut-cli serve`: an invalid
//! configuration is a usage error (exit 2) reported with the offending
//! flag, never a panic (exit 101).

use std::process::Command;

/// Runs `netcut-cli serve <args>` and returns its exit code and stderr.
fn serve(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_netcut-cli"))
        .arg("serve")
        .args(args)
        .output()
        .expect("netcut-cli runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_deadline_and_zero_rate_exit_2_not_101() {
    for (args, flag) in [
        (&["--deadline-us", "0"][..], "--deadline-us"),
        (&["--rps", "0"], "--rps"),
    ] {
        let (code, stderr) = serve(args);
        assert_eq!(code, Some(2), "serve {args:?}: {stderr}");
        assert!(stderr.contains(flag), "serve {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "serve {args:?}: {stderr}");
    }
}
