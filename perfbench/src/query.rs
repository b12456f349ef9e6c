//! `query-deep`: closed-loop one-query requests against an MRPG engine
//! over the deep family.
//!
//! Chosen because the paper's cost split lives here: `core`
//! filter/verify and the 96-d L2 kernel in `metrics` do almost all of a
//! request's work, `wire`/`server` almost none, and the `graph` build is
//! all of `setup_s`.

use crate::client::Client;
use crate::harness::{cores, parse_traces, run_phase, run_workload, Outcome, Phase, Tally};
use crate::layers::{kernel_layers, server_layers, wire_layers, ClientRequest};
use crate::report::{EndToEnd, Layers, Naming};
use crate::serve::ServerConfig;
use crate::stats::{mean, Rng};
use crate::Args;
use dod_core::{IndexSpec, Query};
use dod_datasets::Family;
use dod_wire::{parse_json, JsonValue};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const FAMILY: Family = Family::Deep;
const INDEX: &str = "mrpg:25";
/// The dataset is the same for every run (the wire's default seed), so
/// every seed measures the same engine: query cost is steep in r near
/// the inlier tail, and per-seed datasets would differ in calibrated r,
/// candidates and cost by factors. `--seed` draws each client's query
/// sequence from the mix.
const DATASET_SEED: u64 = 0;
const ENGINE_PATH: &str = "/v1/engines/deep";
const QUERY_PATH: &str = "/v1/engines/deep/query";
/// Radius multipliers around the calibrated default r0, each at the
/// family's default k0; the mix adds (r0, k0/2). Calibration rule: r0
/// makes the family's target outlier ratio at k0, and no query uses a
/// k above k0 (larger k turns thousands of points into candidates and
/// one query into seconds).
const R_MULTIPLIERS: [f64; 4] = [0.95, 1.0, 1.05, 1.2];
/// Samples the radius calibration draws (as `examples/serve.rs` does).
const CALIBRATION_SAMPLES: usize = 300;

pub const NAMING: Naming = Naming {
    op: "query",
    tail: 95.0,
    throughput: "query_qps",
    reports: false,
};

/// One (r, k) of the mix with its request bodies and expected answer.
struct MixEntry {
    r: f64,
    k: usize,
    body: String,
    explain_body: String,
    /// Sorted outlier ids from the in-process VP-tree engine.
    expected: Vec<u32>,
}

struct Inputs {
    n: usize,
    seed: u64,
    generate_s: f64,
    mix: Vec<MixEntry>,
    /// `--corrupt-expected`: besides the first mix entry's expected
    /// outliers, the last entry's in-process filter count is off by
    /// one, so the traced run's count-repeat check fails too.
    corrupt: bool,
}

fn prepare(args: &Args) -> Result<Inputs, String> {
    let n = if args.tiny { 1500 } else { 8000 };
    let started = Instant::now();
    let generated = FAMILY.generate(n, DATASET_SEED);
    let generate_s = started.elapsed().as_secs_f64();
    let r0 = generated.calibrate_default_r(CALIBRATION_SAMPLES);
    let k0 = FAMILY.default_k();
    let mut params: Vec<(f64, usize)> = R_MULTIPLIERS.iter().map(|m| (r0 * m, k0)).collect();
    params.push((r0, k0 / 2));

    // Expected answers come from a VP-tree engine: exact range counting,
    // independent of the MRPG filter the server runs.
    let vptree = generated
        .data
        .into_engine()
        .index(IndexSpec::VpTree)
        .build()
        .map_err(|e| format!("building the reference VP-tree: {e}"))?;
    let expected: Vec<Result<Vec<u32>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = params
            .iter()
            .map(|&(r, k)| {
                let vptree = &vptree;
                s.spawn(move || {
                    let query = Query::new(r, k).map_err(|e| e.to_string())?;
                    let mut outliers = vptree.query(query).map_err(|e| e.to_string())?.outliers;
                    outliers.sort_unstable();
                    Ok(outliers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference query thread panicked"))
            .collect()
    });
    let mut mix = Vec::with_capacity(params.len());
    for (&(r, k), expected) in params.iter().zip(expected) {
        mix.push(MixEntry {
            r,
            k,
            body: format!(r#"{{"queries":[{{"r":{r},"k":{k}}}]}}"#),
            explain_body: format!(r#"{{"queries":[{{"r":{r},"k":{k}}}],"explain":true}}"#),
            expected: expected?,
        });
    }
    if args.corrupt {
        mix[0].expected.push(u32::MAX);
    }
    Ok(Inputs {
        n,
        seed: args.seed,
        generate_s,
        mix,
        corrupt: args.corrupt,
    })
}

/// The explain plan and filter counts of one answer.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Cost {
    filter_evals: f64,
    verify_evals: f64,
    hops: f64,
    pruning_power: f64,
    candidates: f64,
    false_positives: f64,
}

/// Checks one reply against the expected outliers; returns the cost
/// plan when the reply carried one.
fn check(status: u16, body: &str, expected: &[u32]) -> (bool, Option<Cost>) {
    if status != 200 {
        return (false, None);
    }
    let Ok(doc) = parse_json(body) else {
        return (false, None);
    };
    let Some(result) = doc
        .get("results")
        .and_then(JsonValue::as_arr)
        .and_then(|r| r.first())
    else {
        return (false, None);
    };
    let outliers: Option<Vec<u32>> = result.get("outliers").and_then(JsonValue::as_arr).map(|a| {
        a.iter()
            .filter_map(|v| v.as_usize().map(|x| x as u32))
            .collect()
    });
    let ok = outliers.is_some_and(|mut o| {
        o.sort_unstable();
        o == expected
    });
    let num =
        |v: Option<&JsonValue>, key: &str| v.and_then(|v| v.get(key)).and_then(JsonValue::as_f64);
    let plan = result.get("cost");
    let cost = (|| {
        Some(Cost {
            filter_evals: num(plan, "filter_dist_evals")?,
            verify_evals: num(plan, "verify_dist_evals")?,
            hops: num(plan, "hops")?,
            pruning_power: num(plan, "pruning_power")?,
            candidates: num(Some(result), "candidates")?,
            false_positives: num(Some(result), "false_positives")?,
        })
    })();
    (ok, cost)
}

/// Empty server to ready: build the engine over the wire, then one warm
/// query per (r, k) so the lazily built verification state exists.
fn setup(addr: SocketAddr, inputs: &Inputs, tally: &mut Tally) -> Result<f64, String> {
    let mut c = Client::new(addr);
    let spec = format!(
        r#"{{"family":"{}","n":{},"seed":{},"index":"{INDEX}"}}"#,
        FAMILY.name(),
        inputs.n,
        DATASET_SEED
    );
    let started = Instant::now();
    let reply = c
        .call("PUT", ENGINE_PATH, &spec, None)
        .map_err(|e| format!("PUT {ENGINE_PATH}: {e}"))?;
    tally.record(reply.status == 201);
    if reply.status != 201 {
        return Err(format!(
            "PUT {ENGINE_PATH} answered {}: {}",
            reply.status, reply.body
        ));
    }
    for m in &inputs.mix {
        let ok = match c.call("POST", QUERY_PATH, &m.body, None) {
            Ok(reply) => check(reply.status, &reply.body, &m.expected).0,
            Err(_) => false,
        };
        tally.record(ok);
    }
    let elapsed = started.elapsed().as_secs_f64();
    c.close();
    Ok(elapsed)
}

/// One answered request of the measurement.
struct Record {
    id: String,
    mix: usize,
    latency_ms: f64,
    bytes_out: usize,
    bytes_in: usize,
    cost: Option<Cost>,
}

struct Measured {
    records: Vec<Record>,
    elapsed_s: f64,
    reconnects: u64,
}

fn measure(addr: SocketAddr, inputs: &Inputs, seconds: f64, traced: bool) -> (Measured, Tally) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Record>, Tally, u64, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cores())
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::new(inputs.seed ^ (0x51ed_c11e_u64 + c as u64));
                    let mut deck: Vec<usize> = Vec::new();
                    let mut client = Client::new(addr);
                    let mut records = Vec::new();
                    let mut tally = Tally::default();
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        // The mix is dealt from shuffled decks: every
                        // (r, k) appears equally often, in a seeded order.
                        if deck.is_empty() {
                            deck = (0..inputs.mix.len()).collect();
                            rng.shuffle(&mut deck);
                        }
                        let m = deck.pop().expect("refilled above");
                        let id = format!("q{c}-{i}");
                        i += 1;
                        let entry = &inputs.mix[m];
                        let body = if traced {
                            &entry.explain_body
                        } else {
                            &entry.body
                        };
                        match client.call("POST", QUERY_PATH, body, traced.then_some(id.as_str())) {
                            Ok(reply) => {
                                let (ok, cost) = check(reply.status, &reply.body, &entry.expected);
                                tally.record(ok);
                                if ok {
                                    records.push(Record {
                                        id,
                                        mix: m,
                                        latency_ms: reply.latency.as_secs_f64() * 1e3,
                                        bytes_out: reply.bytes_out,
                                        bytes_in: reply.bytes_in,
                                        cost,
                                    });
                                }
                            }
                            Err(_) => tally.record(false),
                        }
                    }
                    client.close();
                    (records, tally, client.reconnects(), Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut records = Vec::new();
    let mut reconnects = 0;
    let mut finished = started;
    for (r, t, rc, end) in per_client {
        records.extend(r);
        tally.absorb(t);
        reconnects += rc;
        finished = finished.max(end);
    }
    let elapsed_s = finished.duration_since(started).as_secs_f64();
    (
        Measured {
            records,
            elapsed_s,
            reconnects,
        },
        tally,
    )
}

fn phase(
    inputs: &Inputs,
    traced: bool,
    setups: usize,
    seconds: f64,
) -> Result<Phase<Measured>, String> {
    let cfg = ServerConfig {
        // Room for every traced request of the phase (well above the
        // achievable query rate), so the trace join misses none.
        trace_capacity: if traced {
            (seconds * 500.0) as usize + 1000
        } else {
            256
        },
    };
    run_phase(
        &cfg,
        setups,
        traced,
        |addr, tally| Ok((setup(addr, inputs, tally)?, ())),
        |addr, ()| Ok(measure(addr, inputs, seconds, traced)),
    )
}

fn end_to_end(p: &Phase<Measured>) -> EndToEnd {
    let m = &p.measured;
    EndToEnd {
        setup_s: p.setup_s.clone(),
        throughput: m.records.len() as f64 / m.elapsed_s,
        op_ms: m.records.iter().map(|r| r.latency_ms).collect(),
        report_ms: Vec::new(),
        peak_rss_mb: p.peak_rss_mb,
        tally: p.tally,
        reconnects: m.reconnects,
    }
}

pub fn run(args: &Args) -> Outcome {
    let inputs = prepare(args)?;
    println!(
        "query-deep: {} n={} dataset seed {DATASET_SEED}, index={INDEX}, query-order seed {}, {} closed-loop clients, {} workers, mix (r,k): {}",
        FAMILY.name(),
        inputs.n,
        inputs.seed,
        cores(),
        cores(),
        inputs
            .mix
            .iter()
            .map(|m| format!("({:.4},{})", m.r, m.k))
            .collect::<Vec<_>>()
            .join(" ")
    );
    run_workload(
        "query-deep",
        &NAMING,
        args,
        if args.tiny { 1 } else { 3 },
        |traced, setups, seconds| phase(&inputs, traced, setups, seconds),
        end_to_end,
        |traced| layers(&inputs, traced),
    )
}

fn layers(inputs: &Inputs, traced: &Phase<Measured>) -> Result<Layers, String> {
    let mut l = Layers::default();
    let records = &traced.measured.records;
    let traces = parse_traces(traced.traces.as_deref().unwrap_or_default())?;
    server_layers(
        &mut l,
        traced.cpu_util,
        records.iter().map(|r| ClientRequest {
            id: &r.id,
            latency_ms: r.latency_ms,
            primary: true,
        }),
        &traces,
    )?;
    let bytes = |f: fn(&Record) -> usize| records.iter().map(|r| f(r) as f64).collect::<Vec<_>>();
    wire_layers(
        &mut l,
        records
            .iter()
            .map(|r| inputs.mix[r.mix].explain_body.as_str()),
        &bytes(|r| r.bytes_out),
        &bytes(|r| r.bytes_in),
    );
    kernel_layers(&mut l, inputs.seed);
    l.set("datasets.generate_s", inputs.generate_s);

    // core: the engine's filter/verify spans joined by request id, and
    // the explain plan every traced answer carries.
    let (mut filter_ms, mut verify_ms) = (Vec::new(), Vec::new());
    for t in records.iter().filter_map(|r| traces.get(&r.id)) {
        filter_ms.push(t.span_ns("filter").unwrap_or(0) as f64 / 1e6);
        verify_ms.push(t.span_ns("verify").unwrap_or(0) as f64 / 1e6);
    }
    let mut costs = Vec::with_capacity(records.len());
    for r in records {
        costs.push((
            r.mix,
            r.cost.ok_or("an explained answer carried no cost plan")?,
        ));
    }
    let avg = |f: fn(&Cost) -> f64| mean(&costs.iter().map(|(_, c)| f(c)).collect::<Vec<_>>());
    let (filter, verify) = (mean(&filter_ms), mean(&verify_ms));
    let evals = avg(|c| c.filter_evals) + avg(|c| c.verify_evals);
    l.set("core.filter_ms", filter);
    l.set("core.verify_ms", verify);
    l.set("core.filter_evals", avg(|c| c.filter_evals));
    l.set("core.verify_evals", avg(|c| c.verify_evals));
    l.set("core.hops", avg(|c| c.hops));
    l.set("core.candidates", avg(|c| c.candidates));
    l.set("core.false_positives", avg(|c| c.false_positives));
    l.set("core.pruning_power", avg(|c| c.pruning_power));
    // Cost model: phase time = evaluations x kernel time; the residual
    // is what the eval count does not explain (hops, queues, verify setup).
    let d96 = l.get("metrics.l2_ns_per_eval_d96");
    l.set(
        "core.model_residual_ms",
        filter + verify - evals * d96 / 1e6,
    );

    // graph / vptree: an in-process twin of the served engine over the
    // same generated data — also the second run the counts must repeat in.
    let engine = FAMILY
        .generate(inputs.n, DATASET_SEED)
        .data
        .into_engine()
        .index(INDEX.parse().map_err(|e| format!("{e}"))?)
        .build()
        .map_err(|e| format!("building the in-process MRPG twin: {e}"))?;
    l.set("graph.build_s", engine.build_secs());
    let query = |m: &MixEntry| Query::new(m.r, m.k).map_err(|e| e.to_string());
    // The smallest radius of the mix leaves the most candidates, so its
    // first run builds the verification state; a repeat is steady state.
    let first = query(&inputs.mix[0])?;
    let started = Instant::now();
    engine.query(first).map_err(|e| e.to_string())?;
    let cold = started.elapsed().as_secs_f64();
    let started = Instant::now();
    engine.query(first).map_err(|e| e.to_string())?;
    l.set(
        "vptree.verify_warmup_s",
        cold - started.elapsed().as_secs_f64(),
    );

    // Eval and hop counts are deterministic per (r, k): every served
    // answer and the in-process twin must agree exactly, else the check
    // fails the run.
    for (i, m) in inputs.mix.iter().enumerate() {
        let cost = engine.query(query(m)?).map_err(|e| e.to_string())?.cost;
        let skew = u64::from(inputs.corrupt && i + 1 == inputs.mix.len());
        let twin = (
            (cost.filter_dist_evals + skew) as f64,
            cost.verify_dist_evals as f64,
            cost.hops as f64,
        );
        let served: Vec<&Cost> = costs
            .iter()
            .filter(|(mix, _)| *mix == i)
            .map(|(_, c)| c)
            .collect();
        let exact = served
            .iter()
            .all(|c| (c.filter_evals, c.verify_evals, c.hops) == twin);
        l.check(exact);
        println!(
            "count repeat (r={:.4}, k={}): {} served answers vs in-process twin (filter {}, verify {}, hops {}): {}",
            m.r,
            m.k,
            served.len(),
            twin.0,
            twin.1,
            twin.2,
            if exact { "exact" } else { "FLAG: counts differ" }
        );
    }
    Ok(l)
}
