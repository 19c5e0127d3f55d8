//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <target> [--scale X] [--reps N] [--full] [--seed S] [--out DIR]
//!
//! targets:
//!   fig3      best-configuration heat map (Figure 3)
//!   fig4      emulated-latency heat map (Figure 4)
//!   fig5      scalability study (Figure 5)
//!   table7    Corda OS KeyValue-Set          (Tables 7+8)
//!   table9    Corda Enterprise KeyValue-Set  (Tables 9+10)
//!   table11   BitShares DoNothing            (Tables 11+12)
//!   table13   Fabric SendPayment             (Tables 13+14)
//!   table15   Quorum Balance                 (Tables 15+16)
//!   table17   Sawtooth CreateAccount         (Tables 17+18)
//!   table19   Diem KeyValue-Get              (Tables 19+20)
//!   tables    all of the above tables
//!   ablations all ablation studies
//!   chaos     fault-injection campaign (crash/heal, beyond-f halt, loss burst);
//!             with --sweep: degradation curves over fault severity plus the
//!             system × fault-kind heat map
//!   overload  goodput-vs-offered-load curves with saturation knees under
//!             tight admission pools, plus the metastable-failure probe
//!             (budget + breaker vs bare retries around an 8x pulse)
//!   churn     membership-churn campaign: single join, single leave, rolling
//!             replacement, and join-under-overload per system, with the
//!             throughput dip, re-stabilization time, epoch count, and
//!             safety verdict per membership change
//!   scenario  the named scenario library (timeline DSL): the four classic
//!             campaign shapes plus composites like churn-under-overload,
//!             partition-flash-crowd, and rolling-restart-diurnal, each
//!             with checkpointed assertions in the report. --list shows
//!             the library; --name A,B runs a subset
//!   bottleneck per-stage bottleneck attribution: one ramp-to-saturation
//!             cell per system with the pipeline stage probes armed,
//!             reporting per-stage residence shares, queue depths,
//!             utilization, sheds, and a machine-checked verdict naming
//!             the stage each system tops out in
//!   contention Smallbank + Zipf-skewed YCSB over a bounded account pool at
//!             three contention levels per system, reporting goodput and
//!             the loss split by cause (MVCC invalidations, notary
//!             double-spends, interacting-op rejections, aborted batches)
//!             plus the workload's ledger invariant. --workloads A,B
//!             restricts the workload mix
//!   grayfail  gray-failure grid: slow-leader, slow-follower, flaky-link,
//!             asymmetric (half-open) partition, and region-WAN latency at
//!             three severities per system, each graded by goodput
//!             retention, p99 inflation, time-to-recover after the heal,
//!             and the consensus LivenessMonitor's live/degraded/stalled
//!             verdict with view-change and storm counters
//!   all       everything
//!
//! flags:
//!   --scale X     window scale vs the paper's 300 s (default 0.1)
//!   --reps N      repetitions (default 2; paper: 3)
//!   --full        sweep the paper's full parameter grid
//!   --paper       shorthand for --scale 1.0 --reps 3 --full
//!   --seed S      root seed (default 0xC0C00717)
//!   --jobs N      worker threads for the experiment grid (default: all
//!                 CPUs); results are byte-identical for every N
//!   --sweep       chaos only: run the fault-sweep campaign (f = 0..=beyond-f
//!                 crash curves, loss-rate and Byzantine-count steps) instead
//!                 of the classic four arms
//!   --systems A,B chaos --sweep, overload, churn, scenario, bottleneck,
//!                 grayfail: restrict the campaign to these systems (labels as printed,
//!                 case-insensitive, e.g. "fabric,corda os"); remaining
//!                 cells keep their numbers. Unknown names are a hard
//!                 error with a did-you-mean hint
//!   --workloads A,B contention only: restrict the campaign to these
//!                 workloads ("Smallbank,YCSB", case-insensitive);
//!                 remaining cells keep their numbers. Unknown names are a
//!                 hard error with a did-you-mean hint
//!   --name A,B    scenario only: run just these named scenarios
//!   --list        scenario only: print the scenario library and exit
//!   --out DIR     also write results as JSON (and CSV where applicable)
//!                 into DIR
//! ```
//!
//! How fast the simulator runs is measured by the separate `perfbench`
//! package, not by this binary.

use std::path::PathBuf;

use coconut::experiments::ablations::render_arms;
use coconut::experiments::{
    all_ablations, bottleneck_for, chaos, chaos_sweep, churn_for, contention_for, fig3, fig4, fig5,
    grayfail_for, overload_curves_for, overload_probes_for, render_scenario_list, scenario_names,
    scenarios_for, table11_12, table13_14, table15_16, table17_18, table19_20, table7_8, table9_10,
    ChurnCampaign, ExperimentConfig, FaultCampaign, OverloadResult, ScenarioCampaign, TableResult,
    WORKLOADS,
};
use coconut::params::SystemKind;
use coconut::report::Report;

/// Parsed command line: one parser for every target, so `--systems`,
/// `--jobs`, and friends behave identically (same errors, same
/// did-you-mean hints) on every subcommand.
struct Cli {
    target: String,
    cfg: ExperimentConfig,
    out_dir: Option<PathBuf>,
    sweep: bool,
    systems: Option<Vec<SystemKind>>,
    workloads: Option<Vec<&'static str>>,
    names: Option<Vec<String>>,
    list: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Cli {
        let mut cli = Cli {
            target: args[0].clone(),
            cfg: ExperimentConfig::default(),
            out_dir: None,
            sweep: false,
            systems: None,
            workloads: None,
            names: None,
            list: false,
        };
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    cli.cfg.scale = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--scale needs a number"));
                    i += 2;
                }
                "--reps" => {
                    cli.cfg.repetitions = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--reps needs an integer"));
                    i += 2;
                }
                "--seed" => {
                    cli.cfg.seed = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seed needs an integer"));
                    i += 2;
                }
                "--full" => {
                    cli.cfg.full_sweep = true;
                    i += 1;
                }
                "--jobs" => {
                    let n: usize = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--jobs needs a positive integer"));
                    if n == 0 {
                        die("--jobs needs a positive integer");
                    }
                    cli.cfg.jobs = Some(n);
                    i += 2;
                }
                "--paper" => {
                    cli.cfg = ExperimentConfig::paper();
                    i += 1;
                }
                "--sweep" => {
                    cli.sweep = true;
                    i += 1;
                }
                "--systems" => {
                    let list = args
                        .get(i + 1)
                        .unwrap_or_else(|| die("--systems needs a comma-separated list"));
                    cli.systems = Some(parse_systems(list));
                    i += 2;
                }
                "--workloads" => {
                    let list = args
                        .get(i + 1)
                        .unwrap_or_else(|| die("--workloads needs a comma-separated list"));
                    cli.workloads = Some(parse_workloads(list));
                    i += 2;
                }
                "--name" => {
                    let list = args
                        .get(i + 1)
                        .unwrap_or_else(|| die("--name needs a comma-separated list"));
                    cli.names = Some(parse_names(list));
                    i += 2;
                }
                "--list" => {
                    cli.list = true;
                    i += 1;
                }
                "--out" => {
                    cli.out_dir = Some(PathBuf::from(
                        args.get(i + 1).unwrap_or_else(|| die("--out needs a path")),
                    ));
                    i += 2;
                }
                other => die(&format!("unknown flag {other}")),
            }
        }
        cli
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    let cli = Cli::parse(&args);
    let cfg = cli.cfg;
    if cli.target == "scenario" && cli.list {
        print!("{}", render_scenario_list());
        return;
    }
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    eprintln!(
        "# COCONUT repro: target={} scale={} reps={} sweep={} seed={:#x} jobs={}",
        cli.target,
        cfg.scale,
        cfg.repetitions,
        if cfg.full_sweep { "full" } else { "reduced" },
        cfg.seed,
        cfg.jobs
            .map_or_else(|| "auto".to_string(), |n| n.to_string()),
    );

    match cli.target.as_str() {
        "fig3" => {
            let f = fig3(&cfg);
            emit(
                "Figure 3 — best MTPS with corresponding MFLS and Duration",
                &f,
                &cli.out_dir,
                "fig3",
            );
        }
        "fig4" => {
            eprintln!("# computing Figure 3 best configurations first ...");
            let base = fig3(&cfg);
            let f = fig4(&cfg, Some(&base));
            emit(
                "Figure 4 — best configurations under netem N(12 ms, 2 ms)",
                &f,
                &cli.out_dir,
                "fig4",
            );
        }
        "fig5" => {
            let f = fig5(&cfg, None);
            emit(
                "Figure 5 — DoNothing MTPS at 8/16/32 nodes",
                &f,
                &cli.out_dir,
                "fig5",
            );
        }
        "table7" => print_table(table7_8(&cfg), &cli.out_dir, "table7_8"),
        "table9" => print_table(table9_10(&cfg), &cli.out_dir, "table9_10"),
        "table11" => print_table(table11_12(&cfg), &cli.out_dir, "table11_12"),
        "table13" => print_table(table13_14(&cfg), &cli.out_dir, "table13_14"),
        "table15" => print_table(table15_16(&cfg), &cli.out_dir, "table15_16"),
        "table17" => print_table(table17_18(&cfg), &cli.out_dir, "table17_18"),
        "table19" => print_table(table19_20(&cfg), &cli.out_dir, "table19_20"),
        "tables" => {
            for (name, t) in all_tables(&cfg) {
                print_table(t, &cli.out_dir, name);
            }
        }
        "ablations" => run_ablations(&cfg),
        "chaos" => run_chaos_campaign(&cfg, cli.sweep, &cli.systems, &cli.out_dir),
        "overload" => run_overload_campaign(&cfg, &cli.systems, &cli.out_dir),
        "churn" => run_churn_campaign(&cfg, &cli.systems, &cli.out_dir),
        "scenario" => run_scenario_campaign(&cfg, &cli.systems, &cli.names, &cli.out_dir),
        "bottleneck" => run_bottleneck_campaign(&cfg, &cli.systems, &cli.out_dir),
        "contention" => run_contention_campaign(&cfg, &cli.systems, &cli.workloads, &cli.out_dir),
        "grayfail" => run_grayfail_campaign(&cfg, &cli.systems, &cli.out_dir),
        "all" => {
            for (name, t) in all_tables(&cfg) {
                print_table(t, &cli.out_dir, name);
            }
            run_ablations(&cfg);
            run_chaos_campaign(&cfg, false, &None, &cli.out_dir);
            run_chaos_campaign(&cfg, true, &cli.systems, &cli.out_dir);
            run_overload_campaign(&cfg, &cli.systems, &cli.out_dir);
            run_churn_campaign(&cfg, &cli.systems, &cli.out_dir);
            run_scenario_campaign(&cfg, &cli.systems, &cli.names, &cli.out_dir);
            run_bottleneck_campaign(&cfg, &cli.systems, &cli.out_dir);
            run_contention_campaign(&cfg, &cli.systems, &cli.workloads, &cli.out_dir);
            run_grayfail_campaign(&cfg, &cli.systems, &cli.out_dir);
            let base = fig3(&cfg);
            emit("Figure 3", &base, &cli.out_dir, "fig3");
            let f4 = fig4(&cfg, Some(&base));
            emit("Figure 4", &f4, &cli.out_dir, "fig4");
            let f5 = fig5(&cfg, Some(&base));
            emit("Figure 5", &f5, &cli.out_dir, "fig5");
        }
        other => die(&format!("unknown target {other}")),
    }
}

fn all_tables(cfg: &ExperimentConfig) -> Vec<(&'static str, TableResult)> {
    vec![
        ("table7_8", table7_8(cfg)),
        ("table9_10", table9_10(cfg)),
        ("table11_12", table11_12(cfg)),
        ("table13_14", table13_14(cfg)),
        ("table15_16", table15_16(cfg)),
        ("table17_18", table17_18(cfg)),
        ("table19_20", table19_20(cfg)),
    ]
}

fn run_ablations(cfg: &ExperimentConfig) {
    for (title, arms) in all_ablations(cfg) {
        println!("{}", render_arms(title, &arms));
    }
}

fn run_chaos_campaign(
    cfg: &ExperimentConfig,
    sweep: bool,
    systems: &Option<Vec<SystemKind>>,
    out: &Option<PathBuf>,
) {
    if sweep {
        let mut campaign = FaultCampaign::full();
        if let Some(list) = systems {
            campaign = campaign.with_systems(list);
        }
        let r = chaos_sweep(cfg, &campaign);
        emit(
            "Chaos sweep — degradation curves over fault severity + heat map",
            &r,
            out,
            "chaos_sweep",
        );
    } else {
        let r = chaos(cfg);
        emit(
            "Chaos campaign — crash/heal, beyond-f halt, loss burst, Byzantine window",
            &r,
            out,
            "chaos",
        );
    }
}

fn run_churn_campaign(
    cfg: &ExperimentConfig,
    systems: &Option<Vec<SystemKind>>,
    out: &Option<PathBuf>,
) {
    let mut campaign = ChurnCampaign::full();
    if let Some(list) = systems {
        campaign = campaign.with_systems(list);
    }
    let r = churn_for(cfg, &campaign);
    emit(
        "Churn campaign — join/leave/rolling-replacement/join-under-overload per system",
        &r,
        out,
        "churn",
    );
}

fn run_overload_campaign(
    cfg: &ExperimentConfig,
    systems: &Option<Vec<SystemKind>>,
    out: &Option<PathBuf>,
) {
    let list = systems.clone().unwrap_or_else(|| SystemKind::ALL.to_vec());
    let r = OverloadResult {
        curves: overload_curves_for(cfg, &list),
        probes: overload_probes_for(cfg, &list),
    };
    emit(
        "Overload campaign — goodput collapse under tight admission pools + metastable probe",
        &r,
        out,
        "overload",
    );
}

fn run_bottleneck_campaign(
    cfg: &ExperimentConfig,
    systems: &Option<Vec<SystemKind>>,
    out: &Option<PathBuf>,
) {
    let list = systems.clone().unwrap_or_else(|| SystemKind::ALL.to_vec());
    let r = bottleneck_for(cfg, &list);
    emit(
        "Bottleneck attribution — per-stage residence, saturation, and verdicts",
        &r,
        out,
        "bottleneck",
    );
}

fn run_grayfail_campaign(
    cfg: &ExperimentConfig,
    systems: &Option<Vec<SystemKind>>,
    out: &Option<PathBuf>,
) {
    let list = systems.clone().unwrap_or_else(|| SystemKind::ALL.to_vec());
    let r = grayfail_for(cfg, &list);
    emit(
        "Gray-failure campaign — stragglers, flaky links, half-open partitions, WAN stretch",
        &r,
        out,
        "grayfail",
    );
}

fn run_contention_campaign(
    cfg: &ExperimentConfig,
    systems: &Option<Vec<SystemKind>>,
    workloads: &Option<Vec<&'static str>>,
    out: &Option<PathBuf>,
) {
    let list = systems.clone().unwrap_or_else(|| SystemKind::ALL.to_vec());
    let wl = workloads.clone().unwrap_or_else(|| WORKLOADS.to_vec());
    let r = contention_for(cfg, &list, &wl);
    emit(
        "Contention sweeps — Smallbank and Zipf-skewed YCSB, losses split by cause",
        &r,
        out,
        "contention",
    );
}

fn run_scenario_campaign(
    cfg: &ExperimentConfig,
    systems: &Option<Vec<SystemKind>>,
    names: &Option<Vec<String>>,
    out: &Option<PathBuf>,
) {
    let mut campaign = ScenarioCampaign::full();
    if let Some(list) = names {
        let refs: Vec<&str> = list.iter().map(String::as_str).collect();
        campaign = campaign
            .with_names(&refs)
            .unwrap_or_else(|unknown| die(&format!("unknown scenario \"{unknown}\"")));
    }
    if let Some(list) = systems {
        campaign = campaign.with_systems(list);
    }
    let r = scenarios_for(cfg, &campaign);
    emit(
        "Scenario library — named timelines with checkpointed assertions",
        &r,
        out,
        "scenarios",
    );
}

fn print_table(t: TableResult, out: &Option<PathBuf>, name: &str) {
    emit("", &t, out, name);
}

/// Prints a report and, with `--out`, writes its JSON (always) and CSV
/// (where the report has a flat-row form) — the one output path every
/// result type shares via the [`Report`] trait.
fn emit(heading: &str, r: &dyn Report, out: &Option<PathBuf>, name: &str) {
    if heading.is_empty() {
        println!("{}", r.render());
    } else {
        println!("{heading}\n\n{}", r.render());
    }
    if let Some(dir) = out {
        let mut json = r.to_json();
        json.push('\n');
        std::fs::write(dir.join(format!("{name}.json")), json).expect("write json");
        if let Some(csv) = r.to_csv() {
            std::fs::write(dir.join(format!("{name}.csv")), csv).expect("write csv");
        }
    }
}

/// Parses a comma-separated, case-insensitive list of system labels
/// ("fabric,corda os") against [`SystemKind::ALL`]. An unknown name is a
/// hard error — never silently skipped — with a did-you-mean hint naming
/// the closest known label plus the full listing.
fn parse_systems(list: &str) -> Vec<SystemKind> {
    let mut out = Vec::new();
    for part in list.split(',') {
        let want = part.trim().to_lowercase();
        if want.is_empty() {
            continue;
        }
        match SystemKind::ALL
            .into_iter()
            .find(|s| s.label().to_lowercase() == want)
        {
            Some(s) => out.push(s),
            None => {
                let labels: Vec<&'static str> =
                    SystemKind::ALL.into_iter().map(|s| s.label()).collect();
                let hint = closest(&want, &labels)
                    .map(|l| format!(" — did you mean \"{l}\"?"))
                    .unwrap_or_default();
                die(&format!(
                    "unknown system \"{}\" in --systems{hint} (known: {})",
                    part.trim(),
                    labels.join(", ")
                ))
            }
        }
    }
    if out.is_empty() {
        die("--systems needs at least one system label");
    }
    out
}

/// Parses a comma-separated, case-insensitive list of workload names
/// ("smallbank,ycsb") against [`WORKLOADS`], with the same
/// hard-error + did-you-mean contract as [`parse_systems`].
fn parse_workloads(list: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    for part in list.split(',') {
        let want = part.trim().to_lowercase();
        if want.is_empty() {
            continue;
        }
        match WORKLOADS.into_iter().find(|w| w.to_lowercase() == want) {
            Some(w) => out.push(w),
            None => {
                let hint = closest(&want, &WORKLOADS)
                    .map(|l| format!(" — did you mean \"{l}\"?"))
                    .unwrap_or_default();
                die(&format!(
                    "unknown workload \"{}\" in --workloads{hint} (known: {})",
                    part.trim(),
                    WORKLOADS.join(", ")
                ))
            }
        }
    }
    if out.is_empty() {
        die("--workloads needs at least one workload name");
    }
    out
}

/// Parses a comma-separated list of scenario names against the library,
/// with the same hard-error + did-you-mean contract as [`parse_systems`].
fn parse_names(list: &str) -> Vec<String> {
    let known = scenario_names();
    let mut out = Vec::new();
    for part in list.split(',') {
        let want = part.trim().to_lowercase();
        if want.is_empty() {
            continue;
        }
        if known.contains(&want.as_str()) {
            out.push(want);
        } else {
            let hint = closest(&want, &known)
                .map(|l| format!(" — did you mean \"{l}\"?"))
                .unwrap_or_default();
            die(&format!(
                "unknown scenario \"{}\" in --name{hint} (known: {})",
                part.trim(),
                known.join(", ")
            ))
        }
    }
    if out.is_empty() {
        die("--name needs at least one scenario name");
    }
    out
}

/// The candidate closest to `want` (lowercase), when the edit distance is
/// small enough to plausibly be a typo (≤ 3, and less than the typed
/// name's length).
fn closest(want: &str, candidates: &[&'static str]) -> Option<&'static str> {
    candidates
        .iter()
        .map(|l| (edit_distance(want, &l.to_lowercase()), *l))
        .min()
        .filter(|&(d, _)| d <= 3 && d < want.len())
        .map(|(_, l)| l)
}

/// Levenshtein distance between two short strings.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

fn print_usage() {
    println!(
        "repro <fig3|fig4|fig5|table7|table9|table11|table13|table15|table17|table19|tables|ablations|chaos|overload|churn|scenario|bottleneck|contention|grayfail|all> \
         [--scale X] [--reps N] [--full] [--paper] [--seed S] [--jobs N] [--sweep] [--systems A,B] [--workloads A,B] [--name A,B] [--list] [--out DIR]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
