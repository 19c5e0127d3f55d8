//! Long run: one system under a steady 200 tx/s DoNothing load for a
//! chosen send window plus a 30 s listen tail, reporting the process's
//! peak resident memory. Comparing send windows shows whether a model's
//! memory grows with run length.
//!
//! ```sh
//! cargo run --release --example long_run -- diem 60 on
//! cargo run --release --example long_run -- fabric 960 off
//! ```
//!
//! Arguments: a system (its label, case-insensitive, spaces as dashes:
//! `diem`, `fabric`, `corda-os`, ...), the send window in seconds, and
//! `on`/`off` for the chaos retry policy. The run uses seed 1. One line
//! goes to stdout: `VmHWM` (Linux only; `-` elsewhere), wall seconds, and
//! the scheduled and confirmed transaction counts.

use std::time::Instant;

use coconut::client::Windows;
use coconut::prelude::*;
use coconut::{RetryPolicy, ScenarioBuilder};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [system, send, retries] = &args[..] else {
        usage("expected three arguments");
    };
    let kind = SystemKind::ALL
        .into_iter()
        .find(|k| k.label().replace(' ', "-").eq_ignore_ascii_case(system))
        .unwrap_or_else(|| usage(&format!("unknown system {system}")));
    let send: u64 = send
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad send seconds {send}")));
    let policy = match retries.as_str() {
        "on" => RetryPolicy::chaos_default(),
        "off" => RetryPolicy::disabled(),
        other => usage(&format!("retries must be on or off, not {other}")),
    };

    let windows = Windows {
        send: SimDuration::from_secs(send),
        listen: SimDuration::from_secs(send + 30),
    };
    let timeline = ScenarioBuilder::new(PayloadKind::DoNothing, 200.0, windows)
        .policy(policy)
        .build();
    let t = Instant::now();
    let run = timeline.run(kind, 1);
    let wall = t.elapsed().as_secs_f64();
    let a = &run.run.accounting;
    println!(
        "{} send {send} s retries {retries}: VmHWM {} wall {wall:.2} s scheduled {} confirmed {}",
        kind.label(),
        peak_rss().unwrap_or_else(|| "-".into()),
        a.scheduled,
        a.confirmed,
    );
}

/// The process's peak resident set size, as `/proc/self/status` prints
/// it (e.g. `36012 kB`).
fn peak_rss() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line["VmHWM:".len()..].trim().to_string())
}

fn usage(why: &str) -> ! {
    eprintln!("error: {why}\nusage: long_run <system> <send seconds> <on|off>");
    std::process::exit(2);
}
