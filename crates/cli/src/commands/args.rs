//! The one positional/flag splitter every verb shares.

use super::CliError;

/// Positional/flag splitter shared by all commands.
#[derive(Default)]
pub(super) struct Parsed<'a> {
    pub(super) positional: Vec<&'a str>,
    pub(super) idrefs: Vec<String>,
    pub(super) reqs: Vec<(String, usize)>,
    pub(super) uniform: Option<usize>,
    pub(super) out: Option<&'a str>,
    pub(super) queries: Option<&'a str>,
    pub(super) wal: Option<&'a str>,
    pub(super) budget: Option<u64>,
    pub(super) batch: Option<usize>,
    pub(super) rounds: Option<usize>,
    pub(super) listen: Option<&'a str>,
    pub(super) workers: Option<usize>,
    pub(super) accept_queue: Option<usize>,
    pub(super) staleness: Option<u64>,
    pub(super) duration_ms: Option<u64>,
    pub(super) tune_interval: Option<usize>,
    pub(super) tune_window: Option<usize>,
    pub(super) query: Option<&'a str>,
    pub(super) update: Option<&'a str>,
    pub(super) ping: bool,
    pub(super) stats: bool,
}

pub(super) fn parse_args<'a>(args: &'a [String]) -> Result<Parsed<'a>, CliError> {
    let mut parsed = Parsed::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--idref" => parsed
                .idrefs
                .push(next_value(&mut it, "--idref")?.to_string()),
            "--req" => {
                let spec = next_value(&mut it, "--req")?;
                let (label, k) = spec
                    .split_once('=')
                    .ok_or_else(|| CliError::usage(format!("--req expects LABEL=K, got {spec:?}")))?;
                let k: usize = k
                    .parse()
                    .map_err(|_| CliError::usage(format!("--req {label}: K must be a number")))?;
                parsed.reqs.push((label.to_string(), k));
            }
            "--uniform" => parsed.uniform = Some(next_number(&mut it, "--uniform")?),
            "--budget" => parsed.budget = Some(next_number(&mut it, "--budget")?),
            "--batch" => parsed.batch = Some(next_number(&mut it, "--batch")?),
            "--rounds" => parsed.rounds = Some(next_number(&mut it, "--rounds")?),
            "--workers" => parsed.workers = Some(next_number(&mut it, "--workers")?),
            "--accept-queue" => parsed.accept_queue = Some(next_number(&mut it, "--accept-queue")?),
            "--staleness" => parsed.staleness = Some(next_number(&mut it, "--staleness")?),
            "--duration-ms" => parsed.duration_ms = Some(next_number(&mut it, "--duration-ms")?),
            "--tune-interval" => parsed.tune_interval = Some(next_number(&mut it, "--tune-interval")?),
            "--tune-window" => parsed.tune_window = Some(next_number(&mut it, "--tune-window")?),
            "--out" => parsed.out = Some(next_value(&mut it, "--out")?),
            "--queries" => parsed.queries = Some(next_value(&mut it, "--queries")?),
            "--wal" => parsed.wal = Some(next_value(&mut it, "--wal")?),
            "--listen" => parsed.listen = Some(next_value(&mut it, "--listen")?),
            "--query" => parsed.query = Some(next_value(&mut it, "--query")?),
            "--update" => parsed.update = Some(next_value(&mut it, "--update")?),
            "--ping" => parsed.ping = true,
            "--stats" => parsed.stats = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::usage(format!("unknown flag {flag:?}")))
            }
            positional => parsed.positional.push(positional),
        }
    }
    Ok(parsed)
}

fn next_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("flag {flag} needs a value")))
}

/// The value of a numeric flag, or the usage error naming the flag.
fn next_number<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, CliError> {
    next_value(it, flag)?
        .parse()
        .map_err(|_| CliError::usage(format!("{flag} expects a number")))
}
