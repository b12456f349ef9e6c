//! `perfbench` — the serving benchmark of this repository.
//!
//! ```text
//! perfbench --workload <query-deep|ingest-window|all> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! Each workload starts `dod_server` in a process of its own (workers =
//! cores), drives it over loopback HTTP/1.1 with one closed-loop
//! keep-alive client per core, checks every answer against an
//! in-process reference, and prints its metrics; the last line of
//! standard output is the JSON result. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs an untraced and a traced phase
//! (half the seconds each) and reports the per-layer metrics plus the
//! tracing overhead. A wrong answer or a failed request makes the
//! command exit 1. See `perfbench/README.md` for the workloads and
//! every metric.

mod client;
mod harness;
mod ingest;
mod layers;
mod query;
mod report;
mod serve;
mod smoke;
mod stats;

pub const WORKLOADS: [&str; 2] = ["query-deep", "ingest-window"];

const USAGE: &str = "usage: perfbench --workload <query-deep|ingest-window|all> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs for the smoke self-test.
    pub tiny: bool,
    /// Corrupts one expected answer, and one input of each in-process
    /// twin, so the checks that use them fail (the smoke self-test's
    /// negative cases).
    pub corrupt: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tiny" => args.tiny = true,
            "--corrupt-expected" => args.corrupt = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--workload" => args.workload = value.clone(),
                    "--seed" => seed = value.parse::<u64>().ok(),
                    "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
                    _ => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    args.seed = seed.ok_or("--seed takes a non-negative integer")?;
    args.seconds = seconds.ok_or("--seconds takes a positive number")?;
    args.trace = trace.ok_or("--trace takes 0 or 1")?;
    Ok(args)
}

/// Runs one workload and prints its result line; the exit code.
fn run_workload(args: &Args, workload: &str) -> i32 {
    let result = match workload {
        "query-deep" => query::run(args),
        _ => ingest::run(args),
    };
    let line = result.and_then(|(tally, metrics)| {
        let correct = tally.failed == 0;
        report::result_line(tally, correct, &metrics).map(|line| (correct, line))
    });
    match line {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                0
            } else {
                eprintln!("{workload}: some requests failed or answered wrongly");
                1
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("serve") => serve::main(&argv[1..]),
        Some("--smoke") if argv.len() == 1 => smoke::run(),
        _ => match parse_args(&argv) {
            Ok(args) if args.workload == "all" => WORKLOADS
                .iter()
                .map(|w| run_workload(&args, w))
                .max()
                .unwrap_or(0),
            Ok(args) => run_workload(&args, &args.workload.clone()),
            Err(msg) => {
                eprintln!("{msg}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}
