//! The `parparaw` binary end to end: exit codes for usage errors, bad
//! sizes and failed writes, and byte-identical IPC output from a
//! monolithic and a streamed parse.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory for one test, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("parparaw-cli-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn file(&self, name: &str, bytes: &[u8]) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn parparaw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_parparaw"))
        .args(args)
        .output()
        .expect("the parparaw binary runs")
}

/// A header and twelve records of three columns; the second is quoted and
/// holds a field delimiter, an escaped quote and a record delimiter. Every
/// record has the same column types, so a stream's first window infers
/// the monolithic schema.
fn quoted_csv() -> Vec<u8> {
    let mut out = b"id,name,score\n".to_vec();
    for i in 0..12 {
        out.extend(format!("{i},\"item {i}, \"\"q\"\"\nline\",{i}.5\n").bytes());
    }
    out
}

#[test]
fn unwritable_output_path_exits_1() {
    let dir = Scratch::new("unwritable");
    let input = dir.file("in.csv", &quoted_csv());
    let target = dir.0.join("missing").join("out.pprw");
    let out = parparaw(&[
        input.to_str().unwrap(),
        "--out",
        "ipc",
        "-O",
        target.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error: write"));
    assert!(!target.exists());
}

#[test]
fn stream_sizes_below_one_byte_exit_2() {
    let dir = Scratch::new("stream-size");
    let input = dir.file("in.csv", b"a,b\nc,d\ne,f\n");
    let input = input.to_str().unwrap();
    for size in ["-1", "0", "nan", "0.5"] {
        let out = parparaw(&[input, "--stream", size]);
        assert_eq!(out.status.code(), Some(2), "--stream {size}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad --stream size"),
            "--stream {size}: {stderr}"
        );
    }
    // One byte is the smallest size a stream accepts.
    let out = parparaw(&[input, "--stream", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn usage_errors_exit_2_before_the_input_is_read() {
    let dir = Scratch::new("usage");
    let missing = dir.0.join("missing.csv");
    let missing = missing.to_str().unwrap();
    for (flag, value, message) in [
        ("--out", "bogus", "unknown output bogus"),
        ("--format", "bogus", "unknown format bogus"),
    ] {
        let out = parparaw(&[missing, flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{flag} {value}: {stderr}");
        assert!(stderr.contains("usage:"), "{flag} {value}: {stderr}");
    }
}

#[test]
fn streamed_ipc_equals_monolithic_ipc() {
    let dir = Scratch::new("ipc");
    let input = dir.file("in.csv", &quoted_csv());
    let input = input.to_str().unwrap();
    let write = |name: &str, extra: &[&str]| {
        let path = dir.0.join(name);
        let mut args = vec![
            input,
            "--header",
            "--out",
            "ipc",
            "-O",
            path.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let out = parparaw(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        std::fs::read(&path).unwrap()
    };
    let whole = write("whole.pprw", &[]);
    let streamed = write("streamed.pprw", &["--stream", "64"]);
    assert!(!whole.is_empty());
    assert_eq!(whole, streamed);
}
