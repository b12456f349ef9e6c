//! `ingest-window`: every client owns one volatile sharded
//! sliding-window session and streams batches into it, asking for the
//! report every few batches.
//!
//! An ack is mostly HTTP and JSON float parsing (`server`, `wire`), and
//! the report is the barrier that drains the `shard`/`stream` backlog.
//! No session is durable; the traced run measures the `wal` layer in
//! process, committing the workload's batches into a session log with
//! the wire-default sync policy (`always`: append + fsync per batch).

use crate::client::Client;
use crate::harness::{
    cores, parse_traces, prom_sum, prom_values, run_phase, run_workload, Outcome, Phase, Tally,
};
use crate::layers::{kernel_layers, server_layers, wire_layers, ClientRequest};
use crate::report::{EndToEnd, Layers, Naming};
use crate::serve::{ScratchDir, ServerConfig};
use crate::stats::{mean, median, Rng};
use crate::Args;
use dod_core::Query;
use dod_datasets::StreamScenario;
use dod_metrics::L2;
use dod_shard::{ShardSpec, ShardedStreamDetector};
use dod_stream::{Backend, VectorSpace, WindowSpec};
use dod_wal::{SessionWal, SyncPolicy, WalOp};
use dod_wire::{parse_json, JsonValue};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const DIM: usize = 8;
const SHARDS: usize = 2;
/// Neighbor threshold of the harness's sharded grid (`experiments stream
/// --shards`).
const K: usize = 8;
/// Points per ingest request.
const BATCH: usize = 16;
/// A report request after every this many ingest requests.
const REPORT_EVERY: usize = 8;
/// Points per request while prefilling the window during setup.
const PREFILL_BATCH: usize = 256;
/// Distinct points in the stream, which every client replays in order
/// for as long as the run lasts, each from its own offset. The stream is
/// stationary (no drift), so a replay is more of the same workload; the
/// cycle is 16 windows long, so a window never holds a point and its
/// replay.
const CYCLE: usize = 1 << 16;
/// The stream's geometry is the same for every run: with 16 random
/// cluster centers, which clusters straddle the shard boundary (and so
/// the ghost rate and the work per point) varies by a factor of two
/// from one scenario seed to the next. `--seed` picks each client's
/// offset into the cycle.
const STREAM_SEED: u64 = 0;

pub const NAMING: Naming = Naming {
    op: "ingest",
    tail: 99.0,
    throughput: "ingest_points_per_s",
    reports: true,
};

/// The sharded grid's stream (8-d, more clusters than shards, no churn)
/// without concentration drift: a random walk over a run tens of times
/// the grid's stream length would make a run's later windows a
/// different workload from its first ones.
pub fn scenario() -> StreamScenario {
    StreamScenario {
        dim: DIM,
        clusters: 16,
        spread: 14.0,
        churn_every: 0,
        drift: 0.0,
        ..StreamScenario::new(DIM)
    }
}

/// The grid's radius: 1.1x the same-cluster pair distance
/// `cluster_std * sqrt(2 * dim)`.
fn radius(s: &StreamScenario) -> f64 {
    1.1 * s.cluster_std * (2.0 * DIM as f64).sqrt()
}

struct Sizes {
    window: usize,
    setups: usize,
}

/// One client's view of the stream: where in the cycle it starts, and
/// the bodies that prefill its session's window.
struct ClientStream {
    /// Cycle offset of the client's first point (a multiple of `BATCH`).
    offset: usize,
    prefill: Vec<String>,
    /// The twin's report after the prefill.
    expected_after_prefill: Vec<u64>,
}

struct Inputs {
    sizes: Sizes,
    r: f64,
    seed: u64,
    generate_s: f64,
    /// One cycle of the stream, as the server decodes it.
    points: Vec<Vec<f32>>,
    /// One body per `BATCH` points of the cycle.
    batches: Vec<String>,
    clients: Vec<ClientStream>,
    /// `--corrupt-expected`: besides the answer expected after the
    /// prefill, the first client's twin misses one measured point, so
    /// the reports after it disagree with the server's.
    corrupt: bool,
}

impl Inputs {
    /// The point at `position` of client `c`'s stream.
    fn point(&self, c: usize, position: usize) -> &Vec<f32> {
        &self.points[(self.clients[c].offset + position) % CYCLE]
    }

    /// The body of client `c`'s `b`-th batch after the prefill.
    fn batch(&self, c: usize, b: usize) -> &str {
        let first = (self.clients[c].offset + self.sizes.window) / BATCH;
        &self.batches[(first + b) % self.batches.len()]
    }
}

/// A twin of one served session: the same detector the server opens
/// for the session's spec.
fn twin(sizes: &Sizes, r: f64) -> Result<ShardedStreamDetector<VectorSpace<L2>>, String> {
    ShardedStreamDetector::open(
        VectorSpace::new(L2, DIM),
        Query::new(r, K).map_err(|e| e.to_string())?,
        WindowSpec::Count(sizes.window),
        Backend::Exhaustive,
        ShardSpec::new(SHARDS).with_warmup(sizes.window / 4),
    )
    .map_err(|e| e.to_string())
}

fn body(points: &[Vec<f32>]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "[{}]",
                p.iter().map(f32::to_string).collect::<Vec<_>>().join(",")
            )
        })
        .collect();
    format!(r#"{{"points":[{}]}}"#, rows.join(","))
}

fn prepare(args: &Args) -> Result<Inputs, String> {
    let sizes = if args.tiny {
        Sizes {
            window: 512,
            setups: 1,
        }
    } else {
        Sizes {
            window: 4096,
            setups: 9,
        }
    };
    let s = scenario();
    let r = radius(&s);
    let started = Instant::now();
    let raw = s.generate(CYCLE, STREAM_SEED);
    let generate_s = started.elapsed().as_secs_f64();
    // The server parses each coordinate as a JSON number and narrows it
    // to f32; the twin is fed exactly those values.
    let points: Vec<Vec<f32>> = raw
        .iter()
        .map(|p| {
            p.iter()
                .map(|x| {
                    x.to_string()
                        .parse::<f64>()
                        .expect("f32 renders as a number") as f32
                })
                .collect()
        })
        .collect();
    let batches = points.chunks_exact(BATCH).map(body).collect();
    let mut rng = Rng::new(args.seed);
    let mut clients = Vec::with_capacity(cores());
    for _ in 0..cores() {
        let offset = (rng.next_u64() as usize % (CYCLE / BATCH)) * BATCH;
        let prefill_points: Vec<Vec<f32>> = (0..sizes.window)
            .map(|p| points[(offset + p) % CYCLE].clone())
            .collect();
        let mut det = twin(&sizes, r)?;
        for p in &prefill_points {
            det.insert(p.clone());
        }
        clients.push(ClientStream {
            offset,
            prefill: prefill_points.chunks(PREFILL_BATCH).map(body).collect(),
            expected_after_prefill: det.outliers(),
        });
    }
    if args.corrupt {
        clients[0].expected_after_prefill.push(u64::MAX);
    }
    Ok(Inputs {
        sizes,
        r,
        seed: args.seed,
        generate_s,
        points,
        batches,
        clients,
        corrupt: args.corrupt,
    })
}

/// Checks an ingest ack: the batch size.
fn ack_ok(status: u16, body: &str, points: usize) -> bool {
    let Ok(doc) = parse_json(body) else {
        return false;
    };
    status == 200 && doc.get("accepted").and_then(JsonValue::as_usize) == Some(points)
}

fn report_outliers(status: u16, body: &str) -> Option<Vec<u64>> {
    if status != 200 {
        return None;
    }
    let doc = parse_json(body).ok()?;
    let seqs = doc.get("outliers")?.as_arr()?;
    let mut out: Vec<u64> = seqs
        .iter()
        .map(|v| v.as_usize().map(|x| x as u64))
        .collect::<Option<_>>()?;
    out.sort_unstable();
    Some(out)
}

/// Empty server to ready: one session per client, each prefilled with a
/// full window and drained by a report.
fn setup(
    addr: SocketAddr,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<(f64, Vec<String>), String> {
    let mut c = Client::new(addr);
    let spec = format!(
        r#"{{"metric":"l2","dim":{DIM},"r":{},"k":{K},"window":{{"count":{}}},"shards":{SHARDS},"warmup":{}}}"#,
        inputs.r,
        inputs.sizes.window,
        inputs.sizes.window / 4,
    );
    let started = Instant::now();
    let mut ids = Vec::with_capacity(inputs.clients.len());
    for client in &inputs.clients {
        let reply = c
            .call("POST", "/v1/sessions", &spec, None)
            .map_err(|e| format!("POST /v1/sessions: {e}"))?;
        tally.record(reply.status == 201);
        let id = parse_json(&reply.body)
            .ok()
            .and_then(|d| d.get("id").and_then(JsonValue::as_str).map(str::to_string))
            .filter(|_| reply.status == 201)
            .ok_or_else(|| {
                format!(
                    "POST /v1/sessions answered {}: {}",
                    reply.status, reply.body
                )
            })?;
        let path = format!("/v1/sessions/{id}/ingest");
        for (i, body) in client.prefill.iter().enumerate() {
            let points = PREFILL_BATCH.min(inputs.sizes.window - i * PREFILL_BATCH);
            let ok = c
                .call("POST", &path, body, None)
                .is_ok_and(|r| ack_ok(r.status, &r.body, points));
            tally.record(ok);
        }
        let report = c.call("GET", &format!("/v1/sessions/{id}/report"), "", None);
        let got = report.ok().and_then(|r| report_outliers(r.status, &r.body));
        tally.record(got.as_ref() == Some(&client.expected_after_prefill));
        ids.push(id);
    }
    let elapsed = started.elapsed().as_secs_f64();
    c.close();
    Ok((elapsed, ids))
}

/// One answered request of the measurement.
struct Request {
    id: String,
    latency_ms: f64,
    bytes_out: usize,
    bytes_in: usize,
}

struct ClientRun {
    ingests: Vec<Request>,
    reports: Vec<Request>,
    /// (stream position, sorted outliers) of every report.
    answers: Vec<(usize, Vec<u64>)>,
    /// Batches acknowledged.
    batches: usize,
    reconnects: u64,
    finished: Instant,
}

struct Measured {
    clients: Vec<ClientRun>,
    elapsed_s: f64,
}

fn measure(
    addr: SocketAddr,
    inputs: &Inputs,
    ids: &[String],
    seconds: f64,
    traced: bool,
) -> Result<(Measured, Tally), String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let runs: Vec<(ClientRun, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(c, sid)| {
                s.spawn(move || {
                    let ingest_path = format!("/v1/sessions/{sid}/ingest");
                    let report_path = format!("/v1/sessions/{sid}/report");
                    let mut client = Client::new(addr);
                    let mut tally = Tally::default();
                    let mut run = ClientRun {
                        ingests: Vec::new(),
                        reports: Vec::new(),
                        answers: Vec::new(),
                        batches: 0,
                        reconnects: 0,
                        finished: started,
                    };
                    let report = |client: &mut Client, run: &mut ClientRun, tally: &mut Tally| {
                        let id = format!("r{c}-{}", run.answers.len());
                        let reply =
                            client.call("GET", &report_path, "", traced.then_some(id.as_str()));
                        let got = reply
                            .as_ref()
                            .ok()
                            .and_then(|r| report_outliers(r.status, &r.body));
                        // Answers are checked against the twin after the run.
                        tally.record(got.is_some());
                        if let (Ok(reply), Some(got)) = (reply, got) {
                            run.answers
                                .push((inputs.sizes.window + run.batches * BATCH, got));
                            run.reports.push(Request {
                                id,
                                latency_ms: reply.latency.as_secs_f64() * 1e3,
                                bytes_out: reply.bytes_out,
                                bytes_in: reply.bytes_in,
                            });
                        }
                    };
                    let mut since_report = 0;
                    while Instant::now() < deadline {
                        let body = inputs.batch(c, run.batches);
                        let id = format!("i{c}-{}", run.batches);
                        let reply =
                            client.call("POST", &ingest_path, body, traced.then_some(id.as_str()));
                        let ok = reply
                            .as_ref()
                            .is_ok_and(|r| ack_ok(r.status, &r.body, BATCH));
                        tally.record(ok);
                        let reply = match reply {
                            Ok(reply) if ok => reply,
                            // The session's position is unknown now;
                            // later answers could not be checked.
                            _ => break,
                        };
                        run.batches += 1;
                        run.ingests.push(Request {
                            id,
                            latency_ms: reply.latency.as_secs_f64() * 1e3,
                            bytes_out: reply.bytes_out,
                            bytes_in: reply.bytes_in,
                        });
                        since_report += 1;
                        if since_report == REPORT_EVERY {
                            since_report = 0;
                            report(&mut client, &mut run, &mut tally);
                        }
                    }
                    // The closing report is the barrier: every acked point
                    // is reflected in it.
                    if since_report > 0 {
                        report(&mut client, &mut run, &mut tally);
                    }
                    run.finished = Instant::now();
                    client.close();
                    run.reconnects = client.reconnects();
                    (run, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut clients = Vec::with_capacity(runs.len());
    for (run, t) in runs {
        tally.absorb(t);
        clients.push(run);
    }
    let finished = clients.iter().map(|c| c.finished).max().unwrap_or(started);
    let elapsed_s = finished.duration_since(started).as_secs_f64();
    Ok((Measured { clients, elapsed_s }, tally))
}

/// Replays each client's stream into a twin and compares every report
/// at its position; returns the number of mismatches.
///
/// The replay covers at most one cycle of the stream. A client's point
/// at position `p + CYCLE` equals the one at `p`, so once the window is
/// full the window at `p + CYCLE` holds the same values as the window at
/// `p`, and an exact detector's outliers there are the same points, each
/// seq `CYCLE` later. A report at position `p` is therefore compared
/// with the twin's answer at `window + (p - window) % CYCLE`, shifted by
/// the whole cycles between them: every report is still checked, and the
/// check costs the same however long the run lasts.
fn check_answers(inputs: &Inputs, m: &Measured) -> Result<u64, String> {
    let window = inputs.sizes.window;
    let first_cycle = |position: usize| window + (position - window) % CYCLE;
    std::thread::scope(|s| {
        let handles: Vec<_> = m
            .clients
            .iter()
            .enumerate()
            .map(|(c, run)| {
                s.spawn(move || -> Result<u64, String> {
                    let mut needed: Vec<usize> =
                        run.answers.iter().map(|(p, _)| first_cycle(*p)).collect();
                    needed.sort_unstable();
                    needed.dedup();
                    let mut det = twin(&inputs.sizes, inputs.r)?;
                    let mut fed = 0;
                    let mut expected = HashMap::with_capacity(needed.len());
                    for position in needed {
                        for p in fed..position {
                            if inputs.corrupt && c == 0 && p == window {
                                continue;
                            }
                            det.insert(inputs.point(c, p).clone());
                        }
                        fed = position;
                        expected.insert(position, det.outliers());
                    }
                    let mismatches = run.answers.iter().filter(|(position, got)| {
                        let q = first_cycle(*position);
                        let shift = (position - q) as u64;
                        !expected[&q]
                            .iter()
                            .map(|seq| seq + shift)
                            .eq(got.iter().copied())
                    });
                    Ok(mismatches.count() as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("twin thread panicked"))
            .sum()
    })
}

fn phase(
    inputs: &Inputs,
    traced: bool,
    setups: usize,
    seconds: f64,
) -> Result<Phase<Measured>, String> {
    let cfg = ServerConfig {
        // Room for every traced request: well above the achievable
        // request rate of both clients together (about 1 800/s on the
        // full window, 7 000/s on the smoke test's small one).
        trace_capacity: if traced {
            (seconds * 10_000.0) as usize + 1000
        } else {
            256
        },
    };
    let mut phase = run_phase(
        &cfg,
        setups,
        traced,
        |addr, tally| setup(addr, inputs, tally),
        |addr, ids| measure(addr, inputs, &ids, seconds, traced),
    )?;
    let mismatches = check_answers(inputs, &phase.measured)?;
    if mismatches > 0 {
        println!("{mismatches} reports differ from the in-process twin");
    }
    // A report that parsed was counted as passing; a wrong one fails.
    phase.tally.failed += mismatches;
    Ok(phase)
}

fn end_to_end(p: &Phase<Measured>) -> EndToEnd {
    let m = &p.measured;
    let all = |f: fn(&ClientRun) -> &Vec<Request>| {
        m.clients
            .iter()
            .flat_map(f)
            .map(|r| r.latency_ms)
            .collect::<Vec<_>>()
    };
    let points: usize = m.clients.iter().map(|c| c.batches * BATCH).sum();
    EndToEnd {
        setup_s: p.setup_s.clone(),
        throughput: points as f64 / m.elapsed_s,
        op_ms: all(|c| &c.ingests),
        report_ms: all(|c| &c.reports),
        peak_rss_mb: p.peak_rss_mb,
        tally: p.tally,
        reconnects: m.clients.iter().map(|c| c.reconnects).sum(),
    }
}

pub fn run(args: &Args) -> Outcome {
    let inputs = prepare(args)?;
    println!(
        "ingest-window: {} closed-loop clients, one volatile session each (l2, dim {DIM}, count window {}, shards {SHARDS}, r={:.4}, k={K}), batches of {BATCH}, a report every {REPORT_EVERY} ingests, seed={}",
        inputs.clients.len(),
        inputs.sizes.window,
        inputs.r,
        inputs.seed,
    );
    run_workload(
        "ingest-window",
        &NAMING,
        args,
        inputs.sizes.setups,
        |traced, setups, seconds| phase(&inputs, traced, setups, seconds),
        end_to_end,
        |traced| layers(&inputs, traced),
    )
}

fn layers(inputs: &Inputs, traced: &Phase<Measured>) -> Result<Layers, String> {
    let mut l = Layers::default();
    let clients = &traced.measured.clients;
    let traces = parse_traces(traced.traces.as_deref().unwrap_or_default())?;
    let requests = clients.iter().flat_map(|c| {
        let ingests = c.ingests.iter().map(|r| ClientRequest {
            id: &r.id,
            latency_ms: r.latency_ms,
            primary: true,
        });
        let reports = c.reports.iter().map(|r| ClientRequest {
            id: &r.id,
            latency_ms: r.latency_ms,
            primary: false,
        });
        ingests.chain(reports)
    });
    server_layers(&mut l, traced.cpu_util, requests, &traces)?;
    let ingests = || clients.iter().flat_map(|c| &c.ingests);
    wire_layers(
        &mut l,
        clients
            .iter()
            .enumerate()
            .flat_map(|(c, run)| (0..run.batches).map(move |b| inputs.batch(c, b))),
        &ingests().map(|r| r.bytes_out as f64).collect::<Vec<_>>(),
        &ingests().map(|r| r.bytes_in as f64).collect::<Vec<_>>(),
    );
    kernel_layers(&mut l, inputs.seed);
    l.set("datasets.generate_s", inputs.generate_s);

    // stream / shard / wal: the sessions' own counters, whole-session
    // totals (prefill included) per ingested point.
    let prom = traced.metrics.as_deref().unwrap_or_default();
    let points = prom_sum(prom, "dod_ingest_points_total");
    if points == 0.0 {
        return Err("/metrics reports no ingested points".into());
    }
    let per_point = |series: &str| prom_sum(prom, series) / points;
    l.set(
        "stream.insert_us_per_point",
        per_point("dod_stream_insert_seconds_total") * 1e6,
    );
    l.set(
        "stream.expiry_us_per_point",
        per_point("dod_stream_expiry_seconds_total") * 1e6,
    );
    l.set(
        "stream.dist_evals_per_point",
        per_point("dod_cost_insert_dist_evals_total")
            + per_point("dod_cost_expiry_dist_evals_total"),
    );
    let report_dispatch: Vec<f64> = clients
        .iter()
        .flat_map(|c| &c.reports)
        .filter_map(|r| traces.get(&r.id)?.span_ns("dispatch"))
        .map(|ns| ns as f64 / 1e6)
        .collect();
    l.set("stream.report_ms", median(&report_dispatch));
    l.set(
        "shard.route_us_per_point",
        per_point("dod_shard_route_seconds_total") * 1e6,
    );
    l.set(
        "shard.ghost_rate",
        per_point("dod_stream_ghost_inserts_total"),
    );
    l.set(
        "shard.slide_skew",
        mean(&prom_values(prom, "dod_shard_balance_slide_skew")),
    );
    wal_layers(&mut l, &inputs.points)?;
    Ok(l)
}

/// The `wal` layer in process: one session log with the wire-default
/// sync policy (`always`), committing the workload's batches as a
/// durable session's ingest requests would; the median microseconds per
/// commit (append + fsync), and the log's own fsync and byte counters
/// per commit and per point.
fn wal_layers(l: &mut Layers, points: &[Vec<f32>]) -> Result<(), String> {
    const COMMITS: usize = 256;
    let dir = ScratchDir::new("wal-replay")?;
    let (mut wal, _) =
        SessionWal::<Vec<f32>>::open(dir.path(), SyncPolicy::Always).map_err(|e| e.to_string())?;
    let telemetry = wal.telemetry();
    let mut samples = Vec::with_capacity(COMMITS);
    for (b, batch) in points.chunks_exact(BATCH).take(COMMITS).enumerate() {
        let ops: Vec<WalOp<Vec<f32>>> = batch
            .iter()
            .enumerate()
            .map(|(i, p)| WalOp::Insert {
                time: (b * BATCH + i) as f64,
                point: p.clone(),
            })
            .collect();
        let started = Instant::now();
        wal.append(&ops).map_err(|e| e.to_string())?;
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let commits = samples.len() as f64;
    l.set("wal.commit_us", median(&samples));
    l.set(
        "wal.fsyncs_per_request",
        telemetry.fsyncs.get() as f64 / commits,
    );
    l.set(
        "wal.bytes_per_point",
        telemetry.appended_bytes.get() as f64 / (commits * BATCH as f64),
    );
    Ok(())
}
