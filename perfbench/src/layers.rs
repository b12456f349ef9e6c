//! Per-layer measurements every workload shares: the server's span
//! accounting joined to client latencies, the distance kernel, and the
//! wire parser — each timed by the benchmark around a crate's public
//! functions, never inside the program.

use crate::harness::TracedRequest;
use crate::report::Layers;
use crate::stats::{mean, median};
use dod_datasets::Family;
use dod_metrics::Dataset;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One request of the traced phase, as the client saw it.
pub struct ClientRequest<'a> {
    pub id: &'a str,
    pub latency_ms: f64,
    /// The workload's main request (query or ingest); reports are not.
    pub primary: bool,
}

/// The `server` layer: joins every client request to its trace by
/// request id.
///
/// `dispatch` covers routing, body decoding, the engine or ingest call
/// and response encoding; `dispatch_self` is that minus the `engine` or
/// `ingest` span inside it. Client latency outside `dispatch` is
/// `unexplained`: socket transfer, request framing, trace publishing,
/// response write. The `read` span is left out of the explained share:
/// on a keep-alive connection it starts when the previous response was
/// written, so it includes the client's own turnaround.
pub fn server_layers<'a>(
    l: &mut Layers,
    cpu_util: f64,
    requests: impl Iterator<Item = ClientRequest<'a>>,
    traces: &HashMap<String, TracedRequest>,
) -> Result<(), String> {
    let (mut self_ms, mut unexplained_ms, mut read_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dispatch_sum, mut latency_sum) = (0.0, 0.0);
    let (mut total, mut joined) = (0usize, 0usize);
    for r in requests {
        total += 1;
        let Some(t) = traces.get(r.id) else { continue };
        let Some(dispatch) = t.span_ns("dispatch") else {
            return Err(format!("trace {} ({}) has no dispatch span", r.id, t.route));
        };
        joined += 1;
        let dispatch = dispatch as f64 / 1e6;
        dispatch_sum += dispatch;
        latency_sum += r.latency_ms;
        if r.primary {
            let child = t
                .span_ns("engine")
                .or_else(|| t.span_ns("ingest"))
                .unwrap_or(0);
            self_ms.push(dispatch - child as f64 / 1e6);
            unexplained_ms.push(r.latency_ms - dispatch);
            read_ms.push(t.span_ns("read").unwrap_or(0) as f64 / 1e6);
        }
    }
    if self_ms.is_empty() {
        return Err("no traced request could be joined to its trace".into());
    }
    if joined < total {
        println!("FLAG: trace ring kept {joined} of {total} traced requests");
    }
    println!(
        "trace reconciliation: {joined} of {total} requests joined; client latency {:.3} ms = dispatch {:.3} ms + outside dispatch {:.3} ms (mean per request); read span {:.3} ms median, reported apart (includes client turnaround)",
        latency_sum / joined as f64,
        dispatch_sum / joined as f64,
        (latency_sum - dispatch_sum) / joined as f64,
        median(&read_ms),
    );
    l.set("server.dispatch_self_ms", median(&self_ms));
    l.set("server.unexplained_ms", median(&unexplained_ms));
    l.set("server.explained_share", dispatch_sum / latency_sum);
    l.set("server.read_ms", median(&read_ms));
    l.set("server.cpu_util", cpu_util);
    Ok(())
}

/// The `wire` layer: the benchmark's own request bodies through
/// `dod_wire`'s parser, and mean bytes per primary request and reply.
pub fn wire_layers<'a>(
    l: &mut Layers,
    bodies: impl Iterator<Item = &'a str> + Clone,
    request_bytes: &[f64],
    response_bytes: &[f64],
) {
    l.set("wire.parse_us_per_kb", parse_us_per_kb(bodies));
    l.set("wire.request_bytes", mean(request_bytes));
    l.set("wire.response_bytes", mean(response_bytes));
}

/// The `metrics` layer: the L2 kernel at the two dimensions the
/// workloads use, through the `Dataset` calls the engines make.
pub fn kernel_layers(l: &mut Layers, seed: u64) {
    let deep = Family::Deep.generate(8000, seed).data;
    l.set("metrics.l2_ns_per_eval_d96", l2_ns_per_eval(&deep));
    let points = crate::ingest::scenario().generate(4096, seed);
    let stream = dod_metrics::VectorSet::from_rows(&points, dod_metrics::L2);
    l.set("metrics.l2_ns_per_eval_d8", l2_ns_per_eval(&stream));
}

/// Nanoseconds per distance evaluation: the median of five timed passes
/// over a fixed pseudo-random sequence of distinct pairs.
pub fn l2_ns_per_eval<D: Dataset>(data: &D) -> f64 {
    const EVALS: usize = 400_000;
    let n = data.len();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut acc = 0.0;
            for e in 0..EVALS {
                let i = e % n;
                let j = (i + 1 + e.wrapping_mul(7919) % (n - 1)) % n;
                acc += data.dist(black_box(i), black_box(j));
            }
            black_box(acc);
            started.elapsed().as_nanos() as f64 / EVALS as f64
        })
        .collect();
    median(&passes)
}

/// Microseconds per KB through `dod_wire::parse_json`: median of five
/// passes, each repeating the body set to at least ~256 KB.
fn parse_us_per_kb<'a>(bodies: impl Iterator<Item = &'a str> + Clone) -> f64 {
    let kb = bodies.clone().map(str::len).sum::<usize>() as f64 / 1024.0;
    let repeats = ((256.0 / kb.max(1e-9)).ceil() as usize).max(1);
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..repeats {
                for b in bodies.clone() {
                    black_box(dod_wire::parse_json(black_box(b)).is_ok());
                }
            }
            started.elapsed().as_secs_f64() * 1e6 / (kb * repeats as f64)
        })
        .collect();
    median(&passes)
}
