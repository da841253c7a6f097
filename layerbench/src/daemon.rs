//! The daemon probe of the traced runs: the release `pnsymd serve` binary
//! with every flag pinned, driven over its line-JSON protocol by one
//! closed-loop client, for the serving layers (`server`, `pool`,
//! `snapshot`) that no in-process operation crosses.

use crate::refs::{count_matches, replay, suite_property, Expectation, NetSpec};
use crate::stats::{median, ms, Metrics, Tally};
use crate::Args;
use pnsym_core::server::{
    CheckRequest, Client, ClientConfig, NamedFormula, PoolOutcome, Request, Response,
};
use pnsym_core::FixpointStrategy;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Contexts the probe daemon keeps warm: fewer than any ladder has nets,
/// so the last pass over the nets restores each from its snapshot.
const PROBE_POOL: usize = 2;

/// A running `pnsymd serve`, stopped (and waited for) on drop.
struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    fn spawn(pnsymd: &Path, dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let mut child = Command::new(pnsymd)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--pool",
                &PROBE_POOL.to_string(),
            ])
            .args(["--strategy", "saturation", "--checkpoint-every", "0"])
            .args(["--max-inflight", "2", "--max-queue", "16"])
            .arg("--snapshot-dir")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|err| format!("cannot start {}: {err}", pnsymd.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            dir,
        };
        match (read, line.trim().strip_prefix("pnsymd listening on ")) {
            (Ok(_), Some(addr)) => daemon.addr = addr.to_string(),
            _ => return Err(format!("pnsymd did not start: {line:?}")),
        }
        Ok(daemon)
    }

    fn client(&self) -> Result<Client, String> {
        let config = ClientConfig {
            read_timeout: Duration::from_secs(120),
            retries: 0,
            ..ClientConfig::default()
        };
        Client::connect_with(self.addr.as_str(), config)
            .map_err(|err| format!("cannot connect to pnsymd: {err:?}"))
    }

    /// Asks the daemon to shut down and waits for it.
    fn stop(mut self, client: &mut Client) {
        let _ = client.request(&Request::Shutdown { id: 0 });
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A net with the one cheap property its queries carry.
struct ServedNet {
    spec: NetSpec,
    net: pnsym_net::PetriNet,
    properties: Vec<Expectation>,
}

impl ServedNet {
    fn new(spec: NetSpec) -> ServedNet {
        let net = spec.build();
        let properties = vec![suite_property(&net, spec.cheap_property())];
        ServedNet {
            spec,
            net,
            properties,
        }
    }

    fn request(&self, id: u64) -> Request {
        Request::Check(CheckRequest {
            id,
            net: self.spec.name(),
            properties: self
                .properties
                .iter()
                .map(|p| NamedFormula {
                    name: p.name.clone(),
                    formula: p.formula.clone(),
                })
                .collect(),
            deadline_ms: None,
            node_ceiling: None,
            step_ceiling: None,
            fault_seed: None,
            strategy: Some(FixpointStrategy::Saturation.to_string()),
            witness: true,
        })
    }
}

/// One answered query: client-side latency, the daemon's own time, and
/// what was wrong with the answer, if anything.
struct Answer {
    latency_ms: f64,
    eval_ms: f64,
    problem: Option<String>,
}

fn ask(client: &mut Client, id: u64, family: &ServedNet, expect: PoolOutcome) -> Answer {
    let request = family.request(id);
    let clock = Instant::now();
    let responses = client.request(&request);
    let latency_ms = ms(clock.elapsed());
    let name = family.spec.name();
    let mut answer = Answer {
        latency_ms,
        eval_ms: 0.0,
        problem: None,
    };
    let responses = match responses {
        Ok(responses) => responses,
        Err(err) => {
            answer.problem = Some(format!("{name}: protocol error {err:?}"));
            return answer;
        }
    };
    let mut verdicts = 0;
    let mut problem = None;
    for response in &responses {
        let found = match response {
            Response::Verdict(v) => {
                verdicts += 1;
                match family.properties.iter().find(|p| p.name == v.name) {
                    None => Some(format!("unasked property {}", v.name)),
                    Some(_) if v.truncated.is_some() => Some(format!("{} truncated", v.name)),
                    Some(p) if v.holds != p.holds => {
                        Some(format!("{} = {}, expected {}", v.name, v.holds, p.holds))
                    }
                    Some(_) if !count_matches(v.reached_markings, family.spec.markings()) => {
                        Some(format!("{} over {} markings", v.name, v.reached_markings))
                    }
                    Some(_) if v.trace.as_ref().is_some_and(|t| !replay(&family.net, t)) => {
                        Some(format!("{} trace does not replay", v.name))
                    }
                    Some(_) => None,
                }
            }
            Response::Done {
                pool,
                truncated,
                total_ms,
                ..
            } => {
                answer.eval_ms = *total_ms;
                if truncated.is_some() {
                    Some("query truncated".to_string())
                } else if *pool != expect {
                    Some(format!("pool outcome {pool:?}, expected {expect:?}"))
                } else {
                    None
                }
            }
            Response::Error { code, message, .. } => Some(format!("error {code:?}: {message}")),
            other => Some(format!("unexpected response {other:?}")),
        };
        problem = problem.or(found);
    }
    if problem.is_none() && verdicts != family.properties.len() {
        problem = Some(format!(
            "{verdicts} verdicts for {} properties",
            family.properties.len()
        ));
    }
    if problem.is_none() && !matches!(responses.last(), Some(Response::Done { .. })) {
        problem = Some("no done line".to_string());
    }
    answer.problem = problem.map(|p| format!("{name}: {p}"));
    answer
}

/// The daemon's pool counters.
#[derive(Debug, Clone, Copy)]
struct PoolCounts {
    hits: u64,
    misses: u64,
    restores: u64,
    spills: u64,
}

impl PoolCounts {
    fn minus(self, earlier: PoolCounts) -> PoolCounts {
        PoolCounts {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            restores: self.restores - earlier.restores,
            spills: self.spills - earlier.spills,
        }
    }

    fn put(&self, metrics: &mut Metrics) {
        metrics.put("pool.hits", self.hits as f64, "count");
        metrics.put("pool.misses", self.misses as f64, "count");
        metrics.put("pool.restores", self.restores as f64, "count");
        metrics.put("pool.spills", self.spills as f64, "count");
    }
}

fn pool_counts(client: &mut Client) -> Result<PoolCounts, String> {
    match client.request(&Request::Stats { id: 0 }).as_deref() {
        Ok(
            [Response::Stats {
                hits,
                misses,
                restores,
                spills,
                ..
            }],
        ) => Ok(PoolCounts {
            hits: *hits,
            misses: *misses,
            restores: *restores,
            spills: *spills,
        }),
        other => Err(format!("stats request failed: {other:?}")),
    }
}

/// What the daemon probe measured, and its checked queries.
pub struct Probed {
    pub metrics: Metrics,
    pub tally: Tally,
}

/// The daemon probe of a traced run: each net queried cold and then warm,
/// then once more after the pool has cycled, so it comes back from its
/// snapshot.
pub fn probe_daemon(args: &Args, nets: &[NetSpec]) -> Result<Probed, String> {
    let mut tally = Tally::default();
    let dir = args
        .work_dir
        .join(format!("probe-daemon-{}", std::process::id()));
    let daemon = Daemon::spawn(&args.pnsymd, dir)?;
    let mut client = daemon.client()?;
    let families: Vec<ServedNet> = nets.iter().map(|&s| ServedNet::new(s)).collect();
    let before = pool_counts(&mut client)?;
    let (mut eval_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let mut id = 1;
    for family in &families {
        for expect in [PoolOutcome::Miss, PoolOutcome::Hit] {
            let answer = ask(&mut client, id, family, expect);
            id += 1;
            if expect == PoolOutcome::Hit {
                eval_ms.push(answer.eval_ms);
                overhead_ms.push(answer.latency_ms - answer.eval_ms);
            }
            tally.record(answer.problem);
        }
    }
    for family in &families {
        let answer = ask(&mut client, id, family, PoolOutcome::Restored);
        id += 1;
        tally.record(answer.problem);
    }
    let counts = pool_counts(&mut client)?.minus(before);
    daemon.stop(&mut client);
    let n = families.len() as u64;
    if (counts.hits, counts.misses, counts.restores) != (n, n, n) {
        tally.record(Some(format!(
            "probe pool counters {counts:?}, expected {n} of each"
        )));
    }
    let mut metrics = Metrics::default();
    metrics.put("server.eval_ms.p50", median(&eval_ms), "ms");
    metrics.put("server.overhead_ms.p50", median(&overhead_ms), "ms");
    counts.put(&mut metrics);
    Ok(Probed { metrics, tally })
}
