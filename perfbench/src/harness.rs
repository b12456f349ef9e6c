//! What every workload shares: one measured phase against a fresh
//! server, the answer tally, and the joins against the server's own
//! observability (`/v1/debug/traces`, `/metrics`).

use crate::client::Client;
use crate::report::{EndToEnd, Layers, Naming};
use crate::serve::{ServerConfig, ServerProc};
use crate::Args;
use dod_wire::{parse_json, JsonValue};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::Instant;

/// Checked operations: every request the benchmark sends is one
/// attempt; a non-2xx status, a transport error or a wrong answer is
/// one failure.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One phase: the setups, the closed-loop measurement on the last
/// set-up server, and what the server reported afterwards.
pub struct Phase<M> {
    /// Seconds from an empty server to ready, one per setup.
    pub setup_s: Vec<f64>,
    pub measured: M,
    /// Server CPU seconds over the measurement, per wall second and core.
    pub cpu_util: f64,
    pub peak_rss_mb: f64,
    /// `GET /v1/debug/traces` and `GET /metrics` bodies, fetched after
    /// the load clients closed (traced phases only).
    pub traces: Option<String>,
    pub metrics: Option<String>,
    pub tally: Tally,
}

/// Runs `setups` setups, each against a fresh server process, then
/// `measure` against the last one, with what its setup returned. The
/// debug endpoints are fetched only after `measure` returned, i.e. after
/// its clients closed their connections: with as many workers as
/// clients, a third connection opened during the run would wait for a
/// worker.
pub fn run_phase<S, M>(
    cfg: &ServerConfig,
    setups: usize,
    traced: bool,
    mut setup: impl FnMut(SocketAddr, &mut Tally) -> Result<(f64, S), String>,
    measure: impl FnOnce(SocketAddr, S) -> Result<(M, Tally), String>,
) -> Result<Phase<M>, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(setups);
    let mut ready = None;
    for _ in 0..setups.max(1) {
        if let Some((previous, _)) = ready.take() {
            ServerProc::stop(previous)?;
        }
        let proc = ServerProc::spawn(cfg)?;
        let (secs, state) = setup(proc.addr(), &mut tally)?;
        setup_s.push(secs);
        ready = Some((proc, state));
    }
    let (server, state) = ready.expect("at least one setup ran");
    let cpu_before = server.cpu_secs();
    let started = Instant::now();
    let (measured, measure_tally) = measure(server.addr(), state)?;
    let wall = started.elapsed().as_secs_f64();
    let cpu_after = server.cpu_secs();
    tally.absorb(measure_tally);
    let cpu_util = match (cpu_before, cpu_after) {
        (Some(a), Some(b)) => (b - a) / (wall * cores() as f64),
        _ => f64::NAN,
    };
    let (traces, metrics) = if traced {
        let mut c = Client::new(server.addr());
        let traces = fetch(&mut c, "/v1/debug/traces", &mut tally)?;
        let metrics = fetch(&mut c, "/metrics", &mut tally)?;
        c.close();
        (Some(traces), Some(metrics))
    } else {
        (None, None)
    };
    let peak_rss_mb = server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM from /proc")?;
    server.stop()?;
    Ok(Phase {
        setup_s,
        measured,
        cpu_util,
        peak_rss_mb,
        traces,
        metrics,
        tally,
    })
}

/// `(tally, result-line metrics)` of one run of a workload.
pub type Outcome = Result<(Tally, BTreeMap<&'static str, f64>), String>;

/// One run of a workload. Untraced: one phase with `setups` setups,
/// measuring for `--seconds`, reporting the end-to-end metrics. Traced:
/// an untraced and a traced phase of one setup each, measuring for half
/// of `--seconds` each (so a traced run lasts about as long as an
/// untraced one), both printed with the tracing overhead between them,
/// reporting the per-layer metrics of the traced phase. `phase(traced,
/// setups, seconds)` runs one phase.
pub fn run_workload<M>(
    workload: &str,
    naming: &Naming,
    args: &Args,
    setups: usize,
    mut phase: impl FnMut(bool, usize, f64) -> Result<Phase<M>, String>,
    end_to_end: impl Fn(&Phase<M>) -> EndToEnd,
    layers: impl FnOnce(&Phase<M>) -> Result<Layers, String>,
) -> Outcome {
    let seconds = args.seconds;
    if !args.trace {
        let p = phase(false, setups, seconds)?;
        let e2e = end_to_end(&p);
        e2e.print(naming, "end-to-end (untraced):");
        return Ok((p.tally, e2e.json_metrics(naming)));
    }
    let untraced = phase(false, 1, seconds / 2.0)?;
    let traced = phase(true, 1, seconds / 2.0)?;
    let (u, t) = (end_to_end(&untraced), end_to_end(&traced));
    u.print(naming, "end-to-end (untraced phase):");
    t.print(naming, "end-to-end (traced phase):");
    EndToEnd::print_overhead(&t, &u, naming);
    let mut tally = untraced.tally;
    tally.absorb(traced.tally);
    let layers = layers(&traced)?;
    tally.absorb(layers.checks);
    Ok((tally, layers.finish(workload)?))
}

fn fetch(c: &mut Client, path: &str, tally: &mut Tally) -> Result<String, String> {
    let reply = c
        .call("GET", path, "", None)
        .map_err(|e| format!("GET {path}: {e}"))?;
    tally.record(reply.status == 200);
    if reply.status != 200 {
        return Err(format!("GET {path} answered {}", reply.status));
    }
    Ok(reply.body)
}

/// Load clients and server workers: one per core.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The spans of one traced request, in nanoseconds, by span name.
pub struct TracedRequest {
    pub route: String,
    pub spans: HashMap<String, u64>,
}

impl TracedRequest {
    pub fn span_ns(&self, name: &str) -> Option<u64> {
        self.spans.get(name).copied()
    }
}

/// Parses a `/v1/debug/traces` body into request id → spans.
pub fn parse_traces(body: &str) -> Result<HashMap<String, TracedRequest>, String> {
    let doc = parse_json(body).map_err(|e| format!("traces body: {e}"))?;
    let traces = doc
        .get("traces")
        .and_then(JsonValue::as_arr)
        .ok_or("traces body has no \"traces\" array")?;
    let mut out = HashMap::with_capacity(traces.len());
    for t in traces {
        let id = t.get("request_id").and_then(JsonValue::as_str);
        let route = t.get("route").and_then(JsonValue::as_str);
        let (Some(id), Some(route)) = (id, route) else {
            return Err("trace without request_id or route".into());
        };
        let mut spans = HashMap::new();
        for s in t.get("spans").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let name = s.get("name").and_then(JsonValue::as_str);
            let ns = s.get("duration_ns").and_then(JsonValue::as_f64);
            if let (Some(name), Some(ns)) = (name, ns) {
                *spans.entry(name.to_string()).or_insert(0) += ns as u64;
            }
        }
        out.insert(
            id.to_string(),
            TracedRequest {
                route: route.to_string(),
                spans,
            },
        );
    }
    Ok(out)
}

/// Sum of every sample of a Prometheus series, over all label sets
/// (0 when the series is absent).
pub fn prom_sum(text: &str, series: &str) -> f64 {
    prom_values(text, series).iter().sum()
}

/// Every sample of a Prometheus series, one per label set.
pub fn prom_values(text: &str, series: &str) -> Vec<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name_labels, value) = l.rsplit_once(' ')?;
            let name = name_labels.split('{').next()?;
            (name == series).then(|| value.parse::<f64>().ok())?
        })
        .collect()
}
