//! The program's own set-up, as an operator would run it: build the index,
//! write a snapshot, load it back, start the serve layer (with a WAL for the
//! durable workload) and the DKNP front-end, connect one client.

use crate::inputs::{Inputs, ReqSource};
use crate::pin::{require_closed_loop, CLIENTS, WORKERS};
use crate::BenchResult;
use dkindex_core::{
    load_with_recovery, save_snapshot_file, DkIndex, DkServer, ServeConfig, WalWriter,
};
use dkindex_graph::DataGraph;
use dkindex_server::{NetClient, NetConfig, NetServer, NetShutdown};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Files one run writes; removed when the run ends.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// A fresh directory under `out`, named after this process so runs that
    /// share `out` never share files.
    pub fn create(out: &Path) -> std::io::Result<Scratch> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn snapshot(&self) -> PathBuf {
        self.dir.join("index.dksn")
    }

    pub fn wal(&self) -> PathBuf {
        self.dir.join("serve.dkwl")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and `out` is ignored.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Live tuner off: its self-enqueued ops land asynchronously and the
/// cost-model counts stop repeating.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        tune_interval: 0,
        ..ServeConfig::default()
    }
}

/// One worker, no drain grace (the only client has left before shutdown),
/// and no visit budget: the workloads are chosen so that no request fails.
pub fn net_config() -> NetConfig {
    NetConfig {
        workers: WORKERS,
        drain_grace_ms: 0,
        default_budget: u64::MAX,
        ..NetConfig::default()
    }
}

/// One in-process DKNP server and the one client connected to it.
pub struct Session {
    pub server: NetServer,
    pub client: NetClient,
}

impl Session {
    /// Serve `(data, dk)` — over a fresh WAL at `wal` when given — and
    /// connect the client.
    pub fn start(data: DataGraph, dk: DkIndex, wal: Option<&Path>) -> BenchResult<Session> {
        require_closed_loop(WORKERS, CLIENTS)?;
        let serve = match wal {
            Some(path) => {
                DkServer::start_logged(data, dk, serve_config(), Box::new(WalWriter::create(path)?))
            }
            None => DkServer::start(data, dk, serve_config()),
        };
        let server = NetServer::start(serve, "127.0.0.1:0", net_config())?;
        let client = NetClient::connect(server.local_addr())?;
        Ok(Session { server, client })
    }

    /// Close the client first so the worker sees end-of-stream and the drain
    /// has nothing to wait for, then hand back the final state.
    pub fn shutdown(self) -> BenchResult<NetShutdown> {
        let Session { server, client } = self;
        drop(client);
        Ok(server.shutdown()?)
    }
}

/// Wall time of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub snapshot_write_s: f64,
    pub snapshot_read_s: f64,
    /// All of it: mining, build, snapshot round trip, server start, connect.
    pub total_s: f64,
    pub snapshot_bytes: u64,
}

/// Run the whole set-up once on an already generated graph.
pub fn set_up(
    inputs: &Inputs,
    reqs: ReqSource,
    scratch: &Scratch,
    durable: bool,
) -> BenchResult<(Session, SetupTimes)> {
    let mut times = SetupTimes::default();
    let begin = Instant::now();

    let requirements = reqs.requirements(&inputs.exprs);
    let step = Instant::now();
    let dk = DkIndex::build(&inputs.data, requirements);
    times.build_s = step.elapsed().as_secs_f64();

    let step = Instant::now();
    save_snapshot_file(&dk, &inputs.data, &scratch.snapshot())?;
    times.snapshot_write_s = step.elapsed().as_secs_f64();
    drop(dk);

    let step = Instant::now();
    let bytes = std::fs::read(scratch.snapshot())?;
    let (dk, data, recovery) = load_with_recovery(&bytes)?;
    times.snapshot_read_s = step.elapsed().as_secs_f64();
    times.snapshot_bytes = bytes.len() as u64;
    drop(bytes);
    if !recovery.is_intact() {
        return Err(format!("snapshot did not load intact: {:?}", recovery.notes).into());
    }

    let wal = scratch.wal();
    let session = Session::start(data, dk, durable.then_some(wal.as_path()))?;
    times.total_s = begin.elapsed().as_secs_f64();
    Ok((session, times))
}
