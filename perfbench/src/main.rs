//! `perfbench --workload <serve|simulate> --seed <n> --seconds <s>
//! --trace <0|1> [--out <dir>]`
//!
//! Every run sets up the inputs three times (the median is `setup_s`)
//! and reports every end-to-end metric, so it runs all three scenarios,
//! interleaving their passes: each makes its base passes, and the named
//! workload's scenario keeps making passes until `--seconds` have been
//! spent in it. `--trace 1` makes the same passes with spans on, then
//! decomposes each layer, prints the per-layer metrics and writes the
//! spans (Chrome trace-event JSON) and a self-time table to `--out`. The
//! last line of standard output is the JSON result; the exit code is
//! non-zero on any correctness failure.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::metrics::{result_line, Values, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::spans::Recorder;
use perfbench::stats::median;
use perfbench::{exact, input, serve, simulate, Tally};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: input::DEV_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_u64(&value).ok_or("--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Inputs {
    serve: serve::ServeInput,
    exact: exact::ExactInput,
    sim: simulate::SimInput,
}

/// One full set-up: synthesis and profiling of every scenario's inputs,
/// and the simulate scenario's schedule preparation.
fn setup(seed: u64, tally: &mut Tally) -> Inputs {
    Inputs {
        serve: serve::setup(seed),
        exact: exact::setup(seed),
        sim: simulate::setup(seed, tally),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut e2e = Values::new();
    let mut layers = Values::new();

    // set-up, three times; the last one's inputs (and checks) are used
    let mut setups = Vec::new();
    let mut synth = Vec::new();
    let mut inputs = None;
    for _ in 0..3 {
        drop(inputs.take());
        let t = Instant::now();
        std::hint::black_box(input::context(args.seed).models());
        synth.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let mut setup_tally = Tally::default();
        let i = setup(args.seed, &mut setup_tally);
        setups.push(t.elapsed().as_secs_f64());
        inputs = Some((i, setup_tally));
    }
    let (inputs, setup_tally) = inputs.expect("set up three times");
    tally.attempted += setup_tally.attempted;
    tally.failed += setup_tally.failed;
    tally.notes.extend(setup_tally.notes);
    e2e.insert("setup_s", median(&setups));
    layers.insert("setup.synthesize_ms", median(&synth));
    eprintln!(
        "setup: {:.2}s median of {setups:.2?}; {} serve keys, {} simulate jobs",
        median(&setups),
        inputs.serve.n_keys(),
        inputs.sim.n_jobs()
    );

    // the scenarios' passes are interleaved, so each scenario's best-of
    // figures draw on every phase of the host's load during the run
    let window = |w: &str| (args.workload == w).then(|| Duration::from_secs_f64(args.seconds));
    let mut rec = Recorder::new(Instant::now(), 0, args.trace);
    let mut serve = serve::Serve::new(&inputs.serve);
    let mut exact = exact::Exact::new(&inputs.exact, &mut tally);
    let mut sim = simulate::Simulate::new(&inputs.sim);
    loop {
        let mut more = false;
        if serve.wants(window("serve")) {
            serve.pass(&mut rec, &mut tally);
            more = true;
        }
        if exact.wants(None) {
            exact.pass(&mut rec, &mut tally);
            more = true;
        }
        if sim.wants(window("simulate")) {
            sim.pass(&mut rec, &mut tally);
            more = true;
        }
        if !more {
            break;
        }
    }
    serve.finish(&mut rec, &mut tally, &mut e2e, &mut layers);
    exact.finish(&rec, &mut tally, &mut e2e, &mut layers);
    sim.finish(&mut rec, &mut tally, &mut e2e, &mut layers);
    match peak_rss_mb() {
        Some(mb) => {
            e2e.insert("peak_rss_mb", mb);
        }
        None => tally.op(false, || "peak RSS unreadable".into()),
    }

    let (values, names): (&Values, Vec<(&'static str, &'static str)>) = if args.trace {
        (
            &layers,
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        )
    } else {
        (&e2e, END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    };
    for (name, _) in &names {
        let ok = values.get(name).is_some_and(|v| v.is_finite());
        tally.op(ok, || format!("metric {name} missing or not finite"));
    }
    if args.trace {
        if let Err(e) = write_trace(&args, &rec) {
            tally.op(false, || format!("writing the trace failed: {e}"));
        }
    }
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    for (name, unit) in &names {
        println!(
            "{name:<32} {:>16.4} {unit}",
            values.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &names, values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_trace(args: &Args, rec: &Recorder) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!("{}-{}", args.workload, args.seed);
    std::fs::write(
        args.out.join(format!("trace-{stem}.json")),
        rec.chrome_json(),
    )?;
    std::fs::write(
        args.out.join(format!("layers-{stem}.csv")),
        rec.self_time_csv(),
    )?;
    eprintln!(
        "trace: {} spans written to {}",
        rec.n_spans(),
        args.out.display()
    );
    Ok(())
}
