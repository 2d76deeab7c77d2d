//! `client`: the DKNP client verb.

use super::args::parse_args;
use super::CliError;
use dkindex_core::ServeError;
use dkindex_server::{ConnectError, ErrorCode, Frame, NetClient};
use std::fmt::Write as _;

/// `client`: a DKNP client for smoke tests and operations. Actions run in
/// a fixed order on one connection: `--ping`, then `--query` (repeated
/// `--rounds` times), then `--update FROM:TO`, then `--stats`; with no
/// action flags it just performs the handshake and one ping. Server-side
/// refusals map onto the documented exit codes: a typed SHED is exit 8
/// (retry later, PROTOCOL.md §5.2), bad query text is 2, an exhausted
/// budget is 6, protocol-level rejections are 4.
pub(super) fn cmd_client(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [addr] = parsed.positional[..] else {
        return Err(CliError::usage("client expects exactly one server address"));
    };
    let update = parsed
        .update
        .map(|spec| -> Result<(u64, u64), CliError> {
            let (from, to) = spec
                .split_once(':')
                .ok_or_else(|| CliError::usage(format!("--update expects FROM:TO, got {spec:?}")))?;
            let from = from
                .parse()
                .map_err(|_| CliError::usage("--update FROM must be a number"))?;
            let to = to
                .parse()
                .map_err(|_| CliError::usage("--update TO must be a number"))?;
            Ok((from, to))
        })
        .transpose()?;

    let mut client = NetClient::connect(addr).map_err(|e| match e {
        ConnectError::Io(err) => CliError::io(addr, err),
        ConnectError::TimedOut => CliError::io(
            addr,
            std::io::Error::new(std::io::ErrorKind::TimedOut, "connect or handshake timed out"),
        ),
        ConnectError::Shed { retry_after_ms } => CliError::Shed(format!(
            "server shed the connection (queue full); retry after {retry_after_ms} ms"
        )),
        ConnectError::Refused { code, message } => {
            CliError::invalid(addr, format!("handshake refused ({code:?}): {message}"))
        }
        ConnectError::Protocol(message) => CliError::invalid(addr, message),
    })?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "connected to {addr}: DKNP v1, epoch {}",
        client.epoch_at_welcome()
    );

    let no_actions = !parsed.ping && parsed.query.is_none() && update.is_none() && !parsed.stats;
    if parsed.ping || no_actions {
        match reply(client.ping().map_err(|e| CliError::io(addr, e))?)? {
            Frame::Pong { epoch } => {
                let _ = writeln!(out, "pong: epoch {epoch}");
            }
            other => return Err(unexpected(addr, &other)),
        }
    }
    if let Some(text) = parsed.query {
        let budget = parsed.budget.unwrap_or(0).min(u64::from(u32::MAX)) as u32;
        for round in 0..parsed.rounds.unwrap_or(1).max(1) {
            match reply(client.query(text, budget).map_err(|e| CliError::io(addr, e))?)? {
                Frame::Answer {
                    epoch,
                    index_visits,
                    data_visits,
                    validated,
                    match_count,
                    ids,
                } => {
                    if round == 0 {
                        let _ = writeln!(
                            out,
                            "{match_count} match(es) at epoch {epoch} \
                             ({index_visits} index + {data_visits} data visits, validated: {validated})",
                        );
                        for id in ids {
                            let _ = writeln!(out, "  node {id}");
                        }
                        if u64::from(match_count) > 32 {
                            let _ = writeln!(out, "  ... ({match_count} total, first 32 shown)");
                        }
                    }
                }
                other => return Err(unexpected(addr, &other)),
            }
        }
    }
    if let Some((from, to)) = update {
        match reply(client.update(from, to).map_err(|e| CliError::io(addr, e))?)? {
            Frame::UpdateOk { pending } => {
                let _ = writeln!(out, "update {from}->{to} admitted; backlog {pending}");
            }
            other => return Err(unexpected(addr, &other)),
        }
    }
    if parsed.stats {
        match reply(client.stats().map_err(|e| CliError::io(addr, e))?)? {
            Frame::StatsOk { text } => out.push_str(&text),
            other => return Err(unexpected(addr, &other)),
        }
    }
    Ok(out)
}

/// Map server-side refusal frames onto the CLI error matrix
/// (PROTOCOL.md §5–§6): SHED → exit 8 (safe to retry), ERROR by code —
/// bad-query 2, budget-exhausted 6, unavailable 7, the connection-fatal
/// codes 4. Any other frame passes through for the caller to match.
fn reply(frame: Frame) -> Result<Frame, CliError> {
    match frame {
        Frame::Shed {
            reason,
            pending,
            retry_after_ms,
        } => Err(CliError::Shed(format!(
            "server shed the request ({reason:?}, backlog {pending}); retry after {retry_after_ms} ms"
        ))),
        Frame::Error { code, message } => Err(match code {
            ErrorCode::BadQuery => CliError::Query(message),
            ErrorCode::BudgetExhausted => CliError::Aborted(message),
            ErrorCode::Unavailable => CliError::Serve(ServeError::MaintenanceGone),
            ErrorCode::Malformed | ErrorCode::UnsupportedVersion => CliError::Invalid {
                path: "connection".to_string(),
                message,
            },
        }),
        other => Ok(other),
    }
}

fn unexpected(addr: &str, frame: &Frame) -> CliError {
    CliError::invalid(addr, format!("unexpected reply frame {frame:?}"))
}

#[cfg(test)]
mod tests {
    use crate::commands::files::load_index_graceful;
    use crate::commands::fixture::*;
    use dkindex_core::{DkServer, ServeConfig};
    use dkindex_server::{NetConfig, NetServer};

    /// Start a [`NetServer`] over the test document's index so the
    /// `client` verb can be driven end-to-end in-process.
    fn start_test_net(dir: &TempDir, cfg: NetConfig) -> NetServer {
        let doc = write_doc(dir);
        let idx = dir.file("index.dki");
        run(&["build", doc.to_str().unwrap(), "--out", idx.to_str().unwrap(), "--uniform", "2",
              "--idref", "idref"])
            .unwrap();
        let (dk, g, _) = load_index_graceful(idx.to_str().unwrap()).unwrap();
        let server = DkServer::start(g, dk, ServeConfig { max_batch: 4, ..ServeConfig::default() });
        NetServer::start(server, "127.0.0.1:0", cfg).unwrap()
    }

    #[test]
    fn client_round_trips_against_a_net_server() {
        let dir = TempDir::new("client");
        let net = start_test_net(&dir, NetConfig::default());
        let addr = net.local_addr().to_string();

        // No action flags: handshake + one ping.
        let out = run(&["client", &addr]).unwrap();
        assert!(out.contains("DKNP v1, epoch 0"), "{out}");
        assert!(out.contains("pong: epoch 0"), "{out}");

        // Query, update, stats on one connection, in the documented order.
        let out = run(&[
            "client", &addr,
            "--query", "movieDB.actor.name",
            "--update", "1:5",
            "--stats",
        ])
        .unwrap();
        assert!(out.contains("1 match(es) at epoch 0"), "{out}");
        assert!(out.contains("update 1->5 admitted; backlog 1"), "{out}");
        assert!(out.contains("admitted=1"), "{out}");

        // Server-reported errors map onto the documented exit codes:
        // unparseable query text is 2, an exhausted budget is 6.
        assert_eq!(
            run(&["client", &addr, "--query", "movieDB.."]).unwrap_err().exit_code(),
            2
        );
        assert_eq!(
            run(&["client", &addr, "--query", "movieDB.actor.name", "--budget", "1"])
                .unwrap_err()
                .exit_code(),
            6
        );

        // Local usage errors stay usage errors.
        assert_eq!(run(&["client"]).unwrap_err().exit_code(), 2);
        assert_eq!(
            run(&["client", &addr, "--update", "nonsense"]).unwrap_err().exit_code(),
            2
        );

        net.shutdown().unwrap();
        // With the server gone, the transport failure is an I/O error.
        assert_eq!(run(&["client", &addr, "--ping"]).unwrap_err().exit_code(), 3);
    }

    #[test]
    fn client_update_shed_is_exit_code_8() {
        let dir = TempDir::new("client-shed");
        // Threshold 0: the first reserved update already exceeds the
        // allowed backlog, so every UPDATE gets the typed maintenance-lag
        // shed (PROTOCOL.md §5.1) — surfaced by the CLI as exit 8.
        let net = start_test_net(&dir, NetConfig {
            staleness_threshold: 0,
            ..NetConfig::default()
        });
        let addr = net.local_addr().to_string();
        let err = run(&["client", &addr, "--update", "1:5"]).unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");
        assert!(err.to_string().contains("retry"), "{err}");
        // Queries still succeed while updates shed.
        run(&["client", &addr, "--query", "movieDB.actor.name"]).unwrap();
        net.shutdown().unwrap();
    }
}
