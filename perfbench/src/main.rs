//! End-to-end and per-layer benchmark of the sealed-bottle stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <friending|churn|churn_sharded|relay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop whose inputs are generated from
//! `--seed`. With `--trace 0` the timed phase runs uninstrumented and the
//! last stdout line is the end-to-end result; with `--trace 1` the
//! benchmark times the calls into each layer's public functions from
//! this package (the program itself carries no tracing), prints a layer
//! table whose rows sum to the timed phase, and ends with the per-layer
//! metrics. Every workload reports the same metric names, those of
//! [`END_TO_END`] or [`PER_LAYER`] (the lists `BENCHMARK.json` at the
//! repository root holds); `WORKLOADS.md` beside this package records
//! why each workload exists, which layers it loads, what each metric
//! means on it, and the steadiness rules.

mod churn;
mod friending;
mod relay;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} takes a value"))
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(|_| "--seed takes an unsigned integer")?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back: the operation counts, the outcome of its
/// output checks, and its metrics (end-to-end or per-layer, by mode).
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one line each; empty means correct.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed output check (the run then reports
    /// `"correct": false`).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Derives an independent sub-seed (SplitMix64 finalizer), so each input
/// family of a workload draws from its own stream of `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile of an ascending slice (the workspace's rank
/// definition, [`msb_telemetry::nearest_rank`]).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = msb_telemetry::nearest_rank(sorted.len(), p).expect("percentile of no samples");
    sorted[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fewest samples of one operation kind a run needs before it prints
/// that kind's p99: at least ten samples then lie beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Prints the median of one operation kind's exact latency samples
/// (seconds) and, from at least [`MIN_P99_SAMPLES`] of them, its p99;
/// returns the median in milliseconds (NaN without samples).
pub fn latency_summary(label: &str, samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let p50 = percentile(samples, 0.50) * 1e3;
    let n = samples.len();
    if n >= MIN_P99_SAMPLES {
        let p99 = percentile(samples, 0.99) * 1e3;
        println!("{label}: n={n} p50={p50:.4} ms p99={p99:.4} ms");
    } else {
        println!("{label}: n={n} p50={p50:.4} ms (no p99 below {MIN_P99_SAMPLES} samples)");
    }
    p50
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kib / 1024.0
}

/// A fixed CPU-and-memory loop owned by the benchmark, in milliseconds.
/// It runs no repository code, so it moves only with the host: read it
/// beside a metric that drifted to tell host drift from a code change.
pub fn host_probe_ms() -> f64 {
    let mut buf = vec![0u64; 1 << 19]; // 4 MiB: larger than most L2s
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let start = Instant::now();
    for round in 0..24u64 {
        for (i, slot) in buf.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = slot.wrapping_add(x ^ (i as u64) ^ round);
        }
    }
    std::hint::black_box(&buf);
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of three probes.
pub fn host_probe_median_ms() -> f64 {
    median(&[host_probe_ms(), host_probe_ms(), host_probe_ms()])
}

/// Accumulated wall time of one layer's calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub total: Duration,
    pub calls: u64,
}

impl Span {
    /// Times one call into the layer.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.total += start.elapsed();
        self.calls += 1;
        out
    }

    pub fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// Mean microseconds per call (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs() * 1e6 / self.calls as f64
        }
    }
}

/// Prints a layer table: each row's seconds and share of `total`, then
/// the residual (`total` minus the rows), so the rows plus the residual
/// sum to the timed phase.
pub fn print_layer_table(title: &str, total_s: f64, rows: &[(&str, f64)]) {
    println!("\n== layer table: {title} ==");
    println!("{:<34} {:>12} {:>8}", "layer", "seconds", "share");
    let mut covered = 0.0;
    for (name, s) in rows {
        covered += s;
        println!("{name:<34} {s:>12.6} {:>7.2}%", 100.0 * s / total_s);
    }
    let residual = total_s - covered;
    println!("{:<34} {residual:>12.6} {:>7.2}%", "residual", 100.0 * residual / total_s);
    println!("{:<34} {total_s:>12.6} {:>7.2}%", "timed phase", 100.0);
}

/// The end-to-end metrics and their units, as `BENCHMARK.json` lists
/// them. Every workload reports each one untraced.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// The per-layer metrics and their units, as `BENCHMARK.json` lists
/// them. A traced workload reports those of the layers whose calls it
/// times; the others read 0 on it.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.create_us", "us"),
    ("core.handle_us", "us"),
    ("core.handle_calls", "count"),
    ("core.candidate_ratio", "ratio"),
    ("core.process_reply_us", "us"),
    ("profile.fast_check_us", "us"),
    ("profile.enumerate_us", "us"),
    ("profile.assignments", "count"),
    ("profile.solves", "count"),
    ("profile.keys", "count"),
    ("profile.matrix_gen_us", "us"),
    ("profile.key_gen_us", "us"),
    ("profile.remainder_gen_us", "us"),
    ("profile.hint_gen_us", "us"),
    ("profile.hint_solve_us", "us"),
    ("crypto.key_trial_us", "us"),
    ("crypto.keys_per_match", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_handshake", "B"),
    ("net.run_s", "s"),
    ("app.callback_s", "s"),
    ("net.engine_s", "s"),
    ("net.us_per_event", "us"),
    ("net.set_positions_s", "s"),
    ("net.mobility_s", "s"),
    ("net.events", "count"),
    ("net.delivered", "count"),
    ("net.neighbor_queries", "count"),
    ("net.cells_per_query", "count"),
    ("net.peak_queue_len", "count"),
    ("shard.windows", "count"),
    ("shard.stall_ratio", "ratio"),
    ("shard.us_per_window", "us"),
    ("shard.envelopes_per_send", "count"),
    ("shard.handoffs", "count"),
    ("shard.resident_bytes_per_node", "B"),
    ("shard.excess_s", "s"),
    ("server.deposit_svc_us", "us"),
    ("server.fetch_svc_us", "us"),
    ("server.socket_share", "ratio"),
    ("server.bottles_per_fetch", "count"),
    ("server.empty_fetch_ratio", "ratio"),
    ("storage.inbox_depth_peak", "count"),
    ("server.frames_in", "count"),
    ("server.rejects", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.probe_ms", "ms"),
];

/// Holds a report to its manifest list: every reported metric must be
/// listed with the listed unit, and the metrics come out in list order.
/// A listed metric the workload did not report is an error when
/// `fill_zero` is false, and reads 0 when it is true (a traced workload
/// that never calls that layer).
fn hold_to_manifest(report: &mut Report, listed: &[(&'static str, &'static str)], fill_zero: bool) {
    for m in &report.metrics {
        if !listed.contains(&(m.name, m.unit)) {
            report.errors.push(format!("{} [{}] is not a listed metric", m.name, m.unit));
        }
    }
    let mut ordered = Vec::with_capacity(listed.len());
    for &(name, unit) in listed {
        match report.metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.push(m.clone()),
            None if fill_zero => ordered.push(Metric { name, value: 0.0, unit }),
            None => report.errors.push(format!("{name} was not reported")),
        }
    }
    report.metrics = ordered;
}

/// Pins the settings the library reads from the environment, before any
/// of it runs: matching stays sequential and AES stays on the S-box
/// backend whatever `MSB_THREADS` / `MSB_AES_BACKEND` the caller's shell
/// exports. The workloads also set both fields explicitly wherever the
/// benchmark builds a `ProtocolConfig` itself; this covers the scenario
/// builders that call `ProtocolConfig::new` internally.
fn pin_environment() {
    std::env::set_var("MSB_THREADS", "1");
    std::env::set_var("MSB_AES_BACKEND", "sbox");
    assert!(msb_core::protocol::Parallelism::default().is_sequential());
    assert_eq!(msb_crypto::aes::CipherBackend::from_env(), msb_crypto::aes::CipherBackend::Sbox);
}

fn main() -> ExitCode {
    pin_environment();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let probe_before = host_probe_median_ms();
    let mut report = match args.workload.as_str() {
        "friending" => friending::run(&args),
        "churn" => churn::run(&args, false),
        "churn_sharded" => churn::run(&args, true),
        "relay" => relay::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let probe_ms = median(&[probe_before, host_probe_median_ms()]);
    if args.trace {
        report.metric("host.probe_ms", probe_ms, "ms");
        hold_to_manifest(&mut report, &PER_LAYER, true);
    } else {
        if !report.metrics.iter().any(|m| m.name == "peak_rss_mb") {
            report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        }
        println!("host.probe_ms {probe_ms:.3}");
        hold_to_manifest(&mut report, &END_TO_END, false);
    }
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    if report.attempted == 0 {
        report.errors.push("no operation was attempted".into());
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        report.errors.push(format!("{} is not finite", m.name));
        report.metrics.retain(|m| m.value.is_finite());
    }
    println!("{}", report.to_json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
