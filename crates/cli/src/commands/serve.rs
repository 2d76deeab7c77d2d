//! `serve`: the index over DKNP on a TCP listener.

use super::args::parse_args;
use super::files::{load_index_graceful, open_or_create_wal, replay_wal_file};
use super::CliError;
use dkindex_core::{DkServer, ServeConfig, TunerConfig};
use dkindex_graph::LabeledGraph;
use dkindex_server::{NetConfig, NetServer};
use std::fmt::Write as _;
use std::fs;

/// `serve`: expose the index over the DKNP wire protocol
/// (docs/PROTOCOL.md) on a TCP listener. Runs until `--duration-ms`
/// elapses (or stdin reaches EOF when the flag is absent), then drains
/// gracefully: new connects are refused, established connections get the
/// grace window, every admitted update is applied before exit
/// (PROTOCOL.md §7, docs/OPERATIONS.md).
///
/// With `--wal` the server recovers from the log on start (replaying the
/// committed prefix over the loaded index) and runs with durable
/// acknowledgments: every UPDATE_OK means the op's group commit has been
/// fsynced to the log (PROTOCOL.md §8, OPERATIONS.md recovery runbook).
pub(super) fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [index_path] = parsed.positional[..] else {
        return Err(CliError::usage("serve expects exactly one index file"));
    };
    let addr = parsed
        .listen
        .ok_or_else(|| CliError::usage("serve needs --listen <addr>"))?;
    let tuner = TunerConfig::default();
    let cfg = ServeConfig {
        max_batch: parsed.batch.unwrap_or(8).max(1),
        tune_interval: parsed.tune_interval.unwrap_or(0),
        tuner: TunerConfig { window: parsed.tune_window.unwrap_or(tuner.window), ..tuner },
    };
    let (mut dk, mut g, _) = load_index_graceful(index_path)?;
    let mut out = String::new();
    let server = match parsed.wal {
        Some(wal_path) => {
            if fs::metadata(wal_path).is_ok() {
                // Recover first (replays the committed prefix, ignores the
                // unacknowledged tail), then reopen for appending — the
                // writer truncates the torn tail so new commits extend the
                // acknowledged prefix.
                let _ = writeln!(out, "{}", replay_wal_file(&mut dk, &mut g, wal_path)?);
            } else {
                let _ = writeln!(out, "created WAL at {wal_path}");
            }
            let writer = open_or_create_wal(wal_path)?;
            DkServer::start_logged(g, dk, cfg, Box::new(writer))
        }
        None => DkServer::start(g, dk, cfg),
    };
    let defaults = NetConfig::default();
    let cfg = NetConfig {
        workers: parsed.workers.unwrap_or(defaults.workers),
        accept_queue: parsed.accept_queue.unwrap_or(defaults.accept_queue),
        staleness_threshold: parsed.staleness.unwrap_or(defaults.staleness_threshold),
        default_budget: parsed.budget.unwrap_or(defaults.default_budget),
        ..defaults
    };
    let net = NetServer::start(server, addr, cfg).map_err(|e| CliError::io(addr, e))?;
    let bound = net.local_addr();
    // Announced on stderr immediately so scripts binding port 0 can read
    // the real address before the run ends.
    eprintln!("dkindex serve: listening on {bound} (DKNP v1)");

    if let Some(ms) = parsed.duration_ms {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    } else {
        // Foreground mode: serve until the operator closes stdin (^D) or
        // the pipe feeding us ends. Whatever arrives is discarded as it is
        // read, so a long-running server holds none of it.
        let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
    }

    let shutdown = net.shutdown().map_err(CliError::Serve)?;
    let _ = writeln!(out, "served on {bound}");
    if parsed.wal.is_some() {
        let _ = writeln!(out, "durable acks: every UPDATE_OK was fsynced to the WAL");
    }
    let _ = writeln!(
        out,
        "drained in {} ms; every admitted update applied",
        shutdown.drain.as_millis()
    );
    let _ = writeln!(
        out,
        "final index has {} nodes over {} data nodes",
        shutdown.index.size(),
        shutdown.data.node_count()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::fixture::*;
    use dkindex_core::wal::WalWriter;

    #[test]
    fn serve_listen_runs_and_drains() {
        let dir = TempDir::new("serve-net");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "2"])
            .unwrap();
        let out = run(&[
            "serve", idx.to_str().unwrap(),
            "--listen", "127.0.0.1:0",
            "--workers", "2",
            "--duration-ms", "100",
        ])
        .unwrap();
        assert!(out.contains("served on 127.0.0.1:"), "{out}");
        assert!(out.contains("drained in"), "{out}");
        assert!(out.contains("every admitted update applied"), "{out}");
        // The listen address is the one thing the verb cannot default.
        let err = run(&["serve", idx.to_str().unwrap()]).unwrap_err();
        assert!(err.exit_code() == 2 && err.to_string().contains("--listen"), "{err}");
    }

    /// `serve --listen --wal` end to end: an UPDATE_OK from a durable
    /// server means the op is on disk — doctor sees it committed with a
    /// clean tail, and a restart with the same `--wal` replays it.
    #[test]
    fn durable_serve_logs_acked_updates_and_recovers_on_restart() {
        let dir = TempDir::new("serve-wal");
        let doc = write_doc(&dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "2",
              "--idref", "idref"])
            .unwrap();
        let idx = idx.to_str().unwrap();
        let wal_path = dir.file("serve.wal");

        // In-process durable server — the same wiring `serve --listen
        // --wal` uses, but with an inspectable bound address.
        let (dk, g, _) = load_index_graceful(idx).unwrap();
        let writer = WalWriter::create(&wal_path).unwrap();
        let server = DkServer::start_logged(
            g,
            dk,
            ServeConfig { max_batch: 4, ..ServeConfig::default() },
            Box::new(writer),
        );
        assert!(server.is_logged());
        let net = NetServer::start(server, "127.0.0.1:0", NetConfig::default()).unwrap();
        let addr = net.local_addr().to_string();

        let out = run(&["client", &addr, "--update", "1:5"]).unwrap();
        assert!(out.contains("admitted"), "{out}");
        net.shutdown().unwrap();

        // The acknowledged update is on disk, fenced.
        let out = run(&["doctor", idx, "--wal", wal_path.to_str().unwrap()]).unwrap();
        assert!(out.contains("WAL v4, 1 committed record(s), 0 uncommitted"), "{out}");
        assert!(out.contains("tail: clean"), "{out}");

        // A restart with the same --wal recovers the committed prefix and
        // serves durably again.
        let out = run(&[
            "serve", idx,
            "--listen", "127.0.0.1:0",
            "--wal", wal_path.to_str().unwrap(),
            "--duration-ms", "50",
        ])
        .unwrap();
        assert!(out.contains("replayed 1 WAL record(s)"), "{out}");
        assert!(out.contains("durable acks"), "{out}");
    }
}
