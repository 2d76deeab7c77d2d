//! Black-box tests of the `dkindex` binary: what the in-process suite under
//! `src/commands/` cannot reach — `main`'s mapping from `CliError` to the
//! process exit status (with `USAGE` on stderr for status 2 only), and the
//! foreground stop mode of `serve --listen`, which runs until stdin closes.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const DOC: &str = r#"
    <movieDB>
      <director id="d1"><name/><movie id="m1"><title/></movie></director>
      <actor id="a1" idref="m1"><name/></actor>
    </movieDB>"#;

/// A fresh directory for `tag` under cargo's per-target scratch space, with
/// `DOC` indexed at uniform(2) in it: the directory and the index path.
fn scratch_with_index(tag: &str) -> (PathBuf, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("dkindex-bin-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (doc, idx) = (path(&dir, "doc.xml"), path(&dir, "index.dki"));
    std::fs::write(&doc, DOC).unwrap();
    let built = dkindex(&["build", &doc, "--out", &idx, "--uniform", "2", "--idref", "idref"]);
    assert_eq!(built.status.code(), Some(0), "{built:?}");
    (dir, idx)
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().unwrap().to_string()
}

fn dkindex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dkindex")).args(args).output().unwrap()
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn serve_listen_answers_over_dknp_until_stdin_closes_then_exits_zero() {
    let (dir, idx) = scratch_with_index("serve");
    let metrics = path(&dir, "metrics.json");
    let mut server = Command::new(env!("CARGO_BIN_EXE_dkindex"))
        .args(["serve", &idx, "--listen", "127.0.0.1:0", "--metrics", &metrics])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The bound address is announced on stderr before the first accept.
    // The reader stays open to the end: the server must never meet EPIPE.
    let mut stderr = BufReader::new(server.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("dkindex serve: listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listen line: {line:?}"))
        .to_string();

    // Bytes on stdin — not even UTF-8 — are discarded, not a stop signal.
    let mut stdin = server.stdin.take().unwrap();
    stdin.write_all(&[0xFF; 1 << 12]).unwrap();
    stdin.flush().unwrap();

    let answered = dkindex(&["client", &addr, "--query", "movieDB.actor.name"]);
    assert_eq!(answered.status.code(), Some(0), "{answered:?}");
    assert!(stdout(&answered).contains("1 match(es) at epoch 0"), "{answered:?}");
    let updated = dkindex(&["client", &addr, "--update", "1:5"]);
    assert!(stdout(&updated).contains("update 1->5 admitted"), "{updated:?}");
    let stats = dkindex(&["client", &addr, "--stats"]);
    assert!(stdout(&stats).contains("admitted=1"), "{stats:?}");

    drop(stdin); // EOF: drain and exit.
    let done = server.wait_with_output().unwrap();
    assert_eq!(done.status.code(), Some(0), "{done:?}");
    let summary = stdout(&done);
    assert!(summary.contains(&format!("served on {addr}")), "{summary}");
    assert!(summary.contains("drained in") && summary.contains("every admitted update applied"),
            "{summary}");
    // `--metrics` observed the served path: epoch publishes and queries.
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"serve.epoch_publishes\""), "{json}");
    assert!(json.contains("\"serve.queries\""), "{json}");
}

#[test]
fn main_maps_each_error_class_to_its_process_status() {
    let (dir, idx) = scratch_with_index("status");
    std::fs::write(path(&dir, "junk.dki"), b"definitely not a snapshot").unwrap();
    // One byte flipped inside the INDX payload (after its tag, length and
    // CRC): the graph is intact, so the index is recoverable damage.
    let mut bytes = std::fs::read(&idx).unwrap();
    let indx = bytes.windows(4).position(|w| w == b"INDX").expect("an INDX section");
    bytes[indx + 12] ^= 0x01;
    std::fs::write(path(&dir, "bad-index.dki"), bytes).unwrap();
    let cases: [(&[&str], i32); 6] = [
        (&["frobnicate"], 2),
        (&["serve", &idx], 2),
        (&["query", &path(&dir, "missing.dki"), "movie"], 3),
        (&["info", &path(&dir, "junk.dki")], 4),
        (&["doctor", &path(&dir, "bad-index.dki")], 5),
        (&["query", &idx, "movie.title", "--budget", "0"], 6),
    ];
    for (args, status) in cases {
        let out = dkindex(args);
        assert_eq!(out.status.code(), Some(status), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: ") && out.stdout.is_empty(), "{args:?}: {out:?}");
        // Only a usage error earns the usage text.
        assert_eq!(stderr.contains("usage:\n  dkindex stats"), status == 2, "{args:?}: {stderr}");
    }
    let help = dkindex(&["--help"]);
    assert!(help.status.success() && stdout(&help).starts_with("usage:"), "{help:?}");
}

/// Regression: XML names have no length cap, so a 70 000-byte element
/// name parses and indexes; the snapshot's names are `u32`-length
/// prefixed, so the index saves, loads and answers like any other.
#[test]
fn an_element_name_over_64_kib_builds_saves_loads_and_answers() {
    let (dir, idx) = scratch_with_index("long-label");
    let name = "a".repeat(70_000);
    let long = path(&dir, "long.xml");
    std::fs::write(&long, format!("<db><{name}/></db>")).unwrap();
    let verbs = [&["build", &long][..], &["add-file", &idx, &long]];
    for (i, args) in verbs.into_iter().enumerate() {
        let out = path(&dir, &format!("out{i}.dki"));
        let run = dkindex(&[args, &["--out", &out]].concat());
        assert_eq!(run.status.code(), Some(0), "{args:?}: {run:?}");
        let query = dkindex(&["query", &out, &format!("db.{name}")]);
        assert_eq!(query.status.code(), Some(0), "{args:?}: {query:?}");
        assert!(stdout(&query).contains("1 match"), "{args:?}: {}", stdout(&query));
    }
}
