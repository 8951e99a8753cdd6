//! Hand-rolled argument parsing (no external dependencies).

use netcut_serve::ScenarioConfig;
use netcut_sim::{DeviceModel, Precision};

/// Usage text printed on parse errors.
pub const USAGE: &str = "\
usage:
  netcut-cli zoo [--extended]
  netcut-cli show <network>
  netcut-cli dot <network>
  netcut-cli measure <network> [--precision fp32|fp16|int8]
  netcut-cli cut <network> <blocks>
  netcut-cli trace <network> [--precision fp32|fp16|int8] [--top N]
  netcut-cli energy <network> [--precision fp32|fp16|int8]
  netcut-cli budget
  netcut-cli explore [--deadline MS] [--extended] [--json] [--jobs N] [--no-cache]
  netcut-cli sweep [--json] [--jobs N] [--no-cache]
  netcut-cli serve [--deadline-us N] [--rps N] [--duration SECONDS] [--seed N]
                   [--jobs N] [--workers N] [--no-degrade] [--no-faults] [--json]
                   [--batch-max N] [--batch-slack-us N] [--shards N]
                   [--devices a,b,...] [--timeline-out <path>]
                   [--timeline-window-us N] [--exit-table full|N]
                   [--thermal-ppm N] [--recalibrate]
                   [--recalib-drift-ppm N] [--recalib-cooldown-us N]
  netcut-cli lint <network|all|serve|det|file.json> [--json]

global options (any command):
  -v, --verbose       log structured events to stderr
  --trace-out <path>  write a trace file: `.jsonl` -> JSON-lines events,
                      any other extension -> Chrome trace_event JSON
                      (open in chrome://tracing or ui.perfetto.dev)
  --strict            run the netcut-verify analyzer before every fresh
                      evaluation even in release builds, and make `lint`
                      treat warnings as errors

evaluation options (explore, sweep):
  --jobs N            evaluation worker threads (0 = one per CPU; default 1);
                      results are identical for any N
  --no-cache          disable evaluation memoization (recompute every
                      measurement and retraining)

serve: simulate the deadline-aware serving runtime on the TRN ladder —
defaults reproduce the paper scenario (deadline 900 µs, 2000 rps, 5 s,
seed 11, 2 workers); `--no-degrade` pins the most accurate network for
an apples-to-apples miss-rate baseline; `--batch-max N` turns on dynamic
batching (coalesce queued requests while every member's deadline still
holds, adding at most `--batch-slack-us` over solo service);
`--shards N` partitions the workers across the `--devices` roster
(jetson-xavier, jetson-nano, tesla-k20m; shard i runs roster[i mod len])
with per-device exit tables and least-completion-time routing; each
device serves ONE multi-exit network whose heads are the ladder's rungs,
so degradation is a free choice of exit at dispatch; `--exit-table N`
pins every visual request to exit N (deepest exit = the `--no-degrade`
baseline bit-for-bit) while `full` (the default) serves the whole
adaptive table; summaries are bit-identical for any `--jobs` value; `--timeline-out <path>` writes the
windowed telemetry timeline (per-shard disposition counts, residual
EWMAs, burn rates, OBS0xx alerts per `--timeline-window-us` window of
virtual time): `.jsonl` -> schema-v1 JSON-lines, any other extension ->
Chrome trace_event JSON on the virtual-time clock; `--thermal-ppm N`
injects a deterministic thermal-throttle window (25%-85% of the run,
every shard) scaling observed service time by N/1e6 — the drift
scenario; `--recalibrate` closes the control loop: when a shard's predicted-vs-observed residual
drifts past `--recalib-drift-ppm` (default 150000), the estimator is
refit on the recent observed window, the Pareto front re-derived from
the primed evaluation caches, and a generation-tagged exit table
hot-swapped in (at most once per `--recalib-cooldown-us`, default
500000, per shard); in-flight requests finish on the generation they
were admitted under, and each swap is an OBS005 alert in the timeline

lint: analyzes a zoo network (or `all`, or an exported network JSON file)
plus every blockwise TRN of it, raw and with the transfer head attached;
`lint serve` builds every reference-matrix scenario and runs the SV
serve-plane rules (ladder soundness, batch-curve sanity, fault-plan
well-formedness, SLO feasibility) — a broken configuration is reported
as an SV diagnostic, not a process error; `lint det` runs the workspace
determinism lint (wall-clock, unordered collections, float-µs) against
the committed `detlint_allow.txt`; `lint all` covers every plane; exits
non-zero when any Error-severity diagnostic is reported";

/// Process-wide observability options, settable on any subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsOptions {
    /// Log structured events to stderr (`-v` / `--verbose`).
    pub verbose: bool,
    /// Trace file path (`--trace-out`); format chosen by extension.
    pub trace_out: Option<String>,
}

/// A fully parsed invocation: global options plus the subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Observability options.
    pub obs: ObsOptions,
    /// Strict verification (`--strict`): run the static analyzer at every
    /// evaluation boundary even in release builds, and promote lint
    /// warnings to failures.
    pub strict: bool,
    /// The subcommand to run.
    pub command: Command,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the zoo.
    Zoo { extended: bool },
    /// Print the per-block structure summary of a network.
    Show { network: String },
    /// Print a Graphviz DOT rendering of a network.
    Dot { network: String },
    /// Measure one network.
    Measure {
        network: String,
        precision: Precision,
    },
    /// Construct and describe a TRN.
    Cut { network: String, blocks: usize },
    /// Print the per-kernel execution trace of a network.
    Trace {
        network: String,
        precision: Precision,
        top: usize,
    },
    /// Print the per-inference energy of a network.
    Energy {
        network: String,
        precision: Precision,
    },
    /// Print the control-loop timing budget derivation.
    Budget,
    /// Run Algorithm 1.
    Explore {
        deadline_ms: f64,
        extended: bool,
        json: bool,
        jobs: usize,
        no_cache: bool,
    },
    /// Run the exhaustive blockwise sweep and summarize.
    Sweep {
        json: bool,
        jobs: usize,
        no_cache: bool,
    },
    /// Simulate the deadline-aware serving runtime.
    Serve {
        /// The validated run configuration.
        config: ScenarioConfig,
        json: bool,
        timeline_out: Option<String>,
    },
    /// Run the `netcut-verify` static analyzer over a network (or the
    /// whole zoo) and every blockwise TRN of it.
    Lint { target: String, json: bool },
}

/// Parses a flag's value, or returns `default` when the flag is absent.
fn parse_or<T: std::str::FromStr>(value: Option<&str>, default: T, err: &str) -> Result<T, String> {
    value.map_or(Ok(default), |v| v.parse().map_err(|_| err.to_string()))
}

fn parse_jobs(value: Option<&str>) -> Result<usize, String> {
    parse_or(value, 1, "--jobs must be an integer (0 = one per CPU)")
}

fn parse_precision(s: &str) -> Result<Precision, String> {
    match s {
        "fp32" => Ok(Precision::Fp32),
        "fp16" => Ok(Precision::Fp16),
        "int8" => Ok(Precision::Int8),
        other => Err(format!("unknown precision `{other}` (fp32|fp16|int8)")),
    }
}

/// Parses a full argument vector into an [`Invocation`]. The global
/// observability flags may appear anywhere in the vector, before or after
/// the subcommand.
pub fn parse(argv: &[String]) -> Result<Invocation, String> {
    let mut obs = ObsOptions::default();
    let mut strict = false;
    let mut remaining: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "-v" | "--verbose" => obs.verbose = true,
            "--strict" => strict = true,
            "--trace-out" => {
                i += 1;
                obs.trace_out = Some(
                    argv.get(i)
                        .ok_or("--trace-out requires a file path")?
                        .clone(),
                );
            }
            other => remaining.push(other),
        }
        i += 1;
    }
    let command = parse_command(&remaining)?;
    Ok(Invocation {
        obs,
        strict,
        command,
    })
}

/// Every per-subcommand flag and whether it takes a value; anything else
/// starting with `-` is a typo (global flags are consumed before this
/// check).
const FLAGS: &[(&str, bool)] = &[
    ("--extended", false),
    ("--precision", true),
    ("--deadline", true),
    ("--top", true),
    ("--json", false),
    ("--jobs", true),
    ("--no-cache", false),
    ("--deadline-us", true),
    ("--rps", true),
    ("--duration", true),
    ("--seed", true),
    ("--workers", true),
    ("--no-degrade", false),
    ("--no-faults", false),
    ("--batch-max", true),
    ("--batch-slack-us", true),
    ("--shards", true),
    ("--devices", true),
    ("--timeline-out", true),
    ("--timeline-window-us", true),
    ("--exit-table", true),
    ("--thermal-ppm", true),
    ("--recalibrate", false),
    ("--recalib-drift-ppm", true),
    ("--recalib-cooldown-us", true),
];

/// Parses the subcommand and its own arguments (global flags removed).
fn parse_command(argv: &[&str]) -> Result<Command, String> {
    let mut it = argv.iter().copied();
    let sub = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&str> = it.collect();
    let takes_value = |a: &str| FLAGS.iter().find(|(f, _)| *f == a).map(|&(_, v)| v);
    if let Some(unknown) = rest
        .iter()
        .find(|a| a.starts_with('-') && takes_value(a).is_none())
    {
        return Err(format!("unknown flag `{unknown}`"));
    }
    let has_flag = |flag: &str| rest.contains(&flag);
    let flag_value = |flag: &str| -> Option<&str> {
        rest.iter()
            .position(|a| *a == flag)
            .and_then(|i| rest.get(i + 1).copied())
    };
    // A flag that takes a value consumes the token after it.
    let positionals: Vec<&str> = rest
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            !a.starts_with("--") && (i == 0 || takes_value(rest[i - 1]) != Some(true))
        })
        .map(|(_, a)| *a)
        .collect();
    let network = || {
        positionals
            .first()
            .map(ToString::to_string)
            .ok_or_else(|| format!("{sub} requires a network name"))
    };
    let precision = || flag_value("--precision").map_or(Ok(Precision::Int8), parse_precision);
    match sub {
        "zoo" => Ok(Command::Zoo {
            extended: has_flag("--extended"),
        }),
        "show" => Ok(Command::Show {
            network: network()?,
        }),
        "dot" => Ok(Command::Dot {
            network: network()?,
        }),
        "measure" => Ok(Command::Measure {
            network: network()?,
            precision: precision()?,
        }),
        "cut" => {
            let network = network()?;
            let blocks: usize = positionals
                .get(1)
                .ok_or("cut requires a block count")?
                .parse()
                .map_err(|_| "block count must be an integer".to_string())?;
            Ok(Command::Cut { network, blocks })
        }
        "trace" => Ok(Command::Trace {
            network: network()?,
            precision: precision()?,
            top: parse_or(flag_value("--top"), 10, "--top must be an integer")?,
        }),
        "energy" => Ok(Command::Energy {
            network: network()?,
            precision: precision()?,
        }),
        "budget" => Ok(Command::Budget),
        "explore" => {
            let deadline_ms = parse_or(
                flag_value("--deadline"),
                0.9,
                "deadline must be a number (ms)",
            )?;
            Ok(Command::Explore {
                deadline_ms,
                extended: has_flag("--extended"),
                json: has_flag("--json"),
                jobs: parse_jobs(flag_value("--jobs"))?,
                no_cache: has_flag("--no-cache"),
            })
        }
        "sweep" => Ok(Command::Sweep {
            json: has_flag("--json"),
            jobs: parse_jobs(flag_value("--jobs"))?,
            no_cache: has_flag("--no-cache"),
        }),
        "serve" => {
            let mut config = ScenarioConfig {
                jobs: parse_jobs(flag_value("--jobs"))?,
                degrade: !has_flag("--no-degrade"),
                faults: !has_flag("--no-faults"),
                recalibrate: has_flag("--recalibrate"),
                ..ScenarioConfig::default()
            };
            for (flag, field) in [
                ("--deadline-us", &mut config.deadline_us),
                ("--rps", &mut config.rps),
                ("--seed", &mut config.seed),
                ("--batch-slack-us", &mut config.batch_slack_us),
                ("--timeline-window-us", &mut config.timeline_window_us),
                ("--thermal-ppm", &mut config.thermal_ppm),
                ("--recalib-drift-ppm", &mut config.recalib_drift_ppm),
                ("--recalib-cooldown-us", &mut config.recalib_cooldown_us),
            ] {
                let err = format!("{flag} must be a number");
                *field = parse_or(flag_value(flag), *field, &err)?;
            }
            for (flag, field) in [
                ("--workers", &mut config.workers),
                ("--batch-max", &mut config.batch_max),
                ("--shards", &mut config.shards),
            ] {
                let err = format!("{flag} must be a number");
                *field = parse_or(flag_value(flag), *field, &err)?;
            }
            if let Some(v) = flag_value("--duration") {
                // Negative and NaN durations saturate to 0 µs, which
                // validation rejects.
                let seconds: f64 = v.parse().map_err(|_| "--duration must be a number")?;
                config.duration_us = (seconds * 1e6).round() as u64;
            }
            if let Some(list) = flag_value("--devices") {
                config.devices = list
                    .split(',')
                    .map(|raw| {
                        DeviceModel::by_name(raw.trim()).ok_or_else(|| {
                            format!(
                                "unknown device `{}` (jetson-xavier|jetson-nano|tesla-k20m)",
                                raw.trim()
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            if has_flag("--timeline-out") && flag_value("--timeline-out").is_none() {
                return Err("--timeline-out requires a file path".to_string());
            }
            config.exit_pin = match flag_value("--exit-table") {
                None if has_flag("--exit-table") => {
                    return Err("--exit-table requires `full` or an exit index".to_string());
                }
                None | Some("full") => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| "--exit-table must be `full` or an exit index".to_string())?,
                ),
            };
            config.validate().map_err(|e| e.to_string())?;
            Ok(Command::Serve {
                config,
                json: has_flag("--json"),
                timeline_out: flag_value("--timeline-out").map(ToString::to_string),
            })
        }
        "lint" => Ok(Command::Lint {
            target: positionals
                .first()
                .ok_or("lint requires a network name, `all`, `serve`, `det`, or a .json file")?
                .to_string(),
            json: has_flag("--json"),
        }),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    /// Parses and returns just the subcommand.
    fn cmd(parts: &[&str]) -> Command {
        parse(&argv(parts)).unwrap().command
    }

    #[test]
    fn parses_zoo() {
        assert_eq!(cmd(&["zoo"]), Command::Zoo { extended: false });
        assert_eq!(cmd(&["zoo", "--extended"]), Command::Zoo { extended: true });
    }

    #[test]
    fn parses_measure_with_precision() {
        assert_eq!(
            cmd(&["measure", "resnet50", "--precision", "fp16"]),
            Command::Measure {
                network: "resnet50".into(),
                precision: Precision::Fp16
            }
        );
    }

    #[test]
    fn measure_defaults_to_int8() {
        assert_eq!(
            cmd(&["measure", "resnet50"]),
            Command::Measure {
                network: "resnet50".into(),
                precision: Precision::Int8
            }
        );
    }

    #[test]
    fn parses_cut() {
        assert_eq!(
            cmd(&["cut", "densenet121", "12"]),
            Command::Cut {
                network: "densenet121".into(),
                blocks: 12
            }
        );
    }

    #[test]
    fn parses_explore_with_deadline() {
        assert_eq!(
            cmd(&["explore", "--deadline", "1.5", "--json"]),
            Command::Explore {
                deadline_ms: 1.5,
                extended: false,
                json: true,
                jobs: 1,
                no_cache: false
            }
        );
    }

    #[test]
    fn parses_jobs_and_no_cache() {
        assert_eq!(
            cmd(&["explore", "--jobs", "8", "--no-cache"]),
            Command::Explore {
                deadline_ms: 0.9,
                extended: false,
                json: false,
                jobs: 8,
                no_cache: true
            }
        );
        assert_eq!(
            cmd(&["sweep", "--jobs", "0", "--json"]),
            Command::Sweep {
                json: true,
                jobs: 0,
                no_cache: false
            }
        );
    }

    #[test]
    fn parses_lint() {
        assert_eq!(
            cmd(&["lint", "resnet50"]),
            Command::Lint {
                target: "resnet50".into(),
                json: false
            }
        );
        assert_eq!(
            cmd(&["lint", "all", "--json"]),
            Command::Lint {
                target: "all".into(),
                json: true
            }
        );
        assert_eq!(
            cmd(&["lint", "serve"]),
            Command::Lint {
                target: "serve".into(),
                json: false
            }
        );
        assert_eq!(
            cmd(&["lint", "det", "--json"]),
            Command::Lint {
                target: "det".into(),
                json: true
            }
        );
        assert!(parse(&argv(&["lint"])).is_err());
    }

    #[test]
    fn serve_defaults_match_the_paper_scenario() {
        assert_eq!(
            cmd(&["serve"]),
            Command::Serve {
                config: ScenarioConfig {
                    deadline_us: 900,
                    rps: 2000,
                    duration_us: 5_000_000,
                    seed: 11,
                    jobs: 1,
                    workers: 2,
                    degrade: true,
                    emg_share_ppm: 100_000,
                    faults: true,
                    batch_max: 1,
                    batch_slack_us: 300,
                    shards: 1,
                    devices: vec![DeviceModel::jetson_xavier(), DeviceModel::jetson_nano()],
                    timeline_window_us: 100_000,
                    exit_pin: None,
                    thermal_ppm: 0,
                    recalibrate: false,
                    recalib_drift_ppm: 150_000,
                    recalib_cooldown_us: 500_000,
                },
                json: false,
                timeline_out: None,
            }
        );
    }

    #[test]
    fn parses_serve_with_every_flag() {
        assert_eq!(
            cmd(&[
                "serve",
                "--deadline-us",
                "1200",
                "--rps",
                "500",
                "--duration",
                "2.5",
                "--seed",
                "7",
                "--jobs",
                "8",
                "--workers",
                "4",
                "--no-degrade",
                "--no-faults",
                "--json",
                "--batch-max",
                "8",
                "--batch-slack-us",
                "150",
                "--shards",
                "2",
                "--devices",
                "xavier,k20m",
                "--timeline-out",
                "tl.jsonl",
                "--timeline-window-us",
                "50000",
                "--exit-table",
                "3",
                "--thermal-ppm",
                "1300000",
                "--recalibrate",
                "--recalib-drift-ppm",
                "200000",
                "--recalib-cooldown-us",
                "250000",
            ]),
            Command::Serve {
                config: ScenarioConfig {
                    deadline_us: 1200,
                    rps: 500,
                    duration_us: 2_500_000,
                    seed: 7,
                    jobs: 8,
                    workers: 4,
                    degrade: false,
                    emg_share_ppm: 100_000,
                    faults: false,
                    batch_max: 8,
                    batch_slack_us: 150,
                    shards: 2,
                    devices: vec![DeviceModel::jetson_xavier(), DeviceModel::tesla_k20m()],
                    timeline_window_us: 50_000,
                    exit_pin: Some(3),
                    thermal_ppm: 1_300_000,
                    recalibrate: true,
                    recalib_drift_ppm: 200_000,
                    recalib_cooldown_us: 250_000,
                },
                json: true,
                timeline_out: Some("tl.jsonl".into()),
            }
        );
    }

    #[test]
    fn serve_rejects_bad_values() {
        assert!(parse(&argv(&["serve", "--rps", "lots"])).is_err());
        assert!(parse(&argv(&["serve", "--duration", "-1"])).is_err());
        assert!(parse(&argv(&["serve", "--deadline-u", "900"])).is_err());
        assert!(parse(&argv(&["serve", "--batch-max", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--shards", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--devices", "xavier,tpu"])).is_err());
        assert!(parse(&argv(&["serve", "--timeline-out"])).is_err());
        assert!(parse(&argv(&["serve", "--timeline-window-us", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--exit-table"])).is_err());
        assert!(parse(&argv(&["serve", "--exit-table", "deep"])).is_err());
        assert!(parse(&argv(&["serve", "--recalib-drift-ppm", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--recalib-cooldown-us", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--deadline-us", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--rps", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--duration", "1e12"])).is_err());
        assert!(parse(&argv(&[
            "serve",
            "--timeline-window-us",
            "1",
            "--duration",
            "1000"
        ]))
        .is_err());
        assert!(parse(&argv(&["serve", "--workers", "100000000"])).is_err());
        assert!(parse(&argv(&[
            "serve",
            "--thermal-ppm",
            "18446744073709551615",
            "--duration",
            "0.1"
        ]))
        .is_err());
    }

    #[test]
    fn exit_table_full_is_the_adaptive_default() {
        let Command::Serve { config, .. } = cmd(&["serve", "--exit-table", "full"]) else {
            panic!("not a serve command");
        };
        assert_eq!(config.exit_pin, None);
        let Command::Serve { config, .. } = cmd(&["serve", "--exit-table", "0"]) else {
            panic!("not a serve command");
        };
        assert_eq!(config.exit_pin, Some(0));
    }

    #[test]
    fn serve_device_spellings_canonicalize() {
        let Command::Serve { config, .. } =
            cmd(&["serve", "--devices", "jetson_xavier, nano ,tesla-k20m"])
        else {
            panic!("not a serve command");
        };
        let names: Vec<&str> = config.devices.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["jetson-xavier", "jetson-nano", "tesla-k20m"]);
    }

    #[test]
    fn parses_global_strict_anywhere() {
        for parts in [
            &["--strict", "lint", "all"][..],
            &["lint", "--strict", "all"],
            &["lint", "all", "--strict"],
        ] {
            let inv = parse(&argv(parts)).unwrap();
            assert!(inv.strict, "--strict not seen in {parts:?}");
            assert_eq!(
                inv.command,
                Command::Lint {
                    target: "all".into(),
                    json: false
                }
            );
        }
        assert!(!parse(&argv(&["zoo"])).unwrap().strict);
    }

    #[test]
    fn rejects_bad_jobs_value() {
        let err = parse(&argv(&["explore", "--jobs", "many"])).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn parses_show_and_dot() {
        assert_eq!(
            cmd(&["show", "vgg16"]),
            Command::Show {
                network: "vgg16".into()
            }
        );
        assert_eq!(
            cmd(&["dot", "alexnet"]),
            Command::Dot {
                network: "alexnet".into()
            }
        );
    }

    #[test]
    fn parses_trace() {
        assert_eq!(
            cmd(&["trace", "resnet50", "--top", "5"]),
            Command::Trace {
                network: "resnet50".into(),
                precision: Precision::Int8,
                top: 5
            }
        );
    }

    #[test]
    fn parses_energy_and_budget() {
        assert_eq!(
            cmd(&["energy", "resnet50"]),
            Command::Energy {
                network: "resnet50".into(),
                precision: Precision::Int8
            }
        );
        assert_eq!(cmd(&["budget"]), Command::Budget);
    }

    #[test]
    fn obs_flags_default_off() {
        let inv = parse(&argv(&["zoo"])).unwrap();
        assert_eq!(inv.obs, ObsOptions::default());
        assert!(!inv.obs.verbose);
        assert!(inv.obs.trace_out.is_none());
    }

    #[test]
    fn parses_global_verbose_anywhere() {
        for parts in [
            &["-v", "measure", "resnet50"][..],
            &["measure", "-v", "resnet50"],
            &["measure", "resnet50", "--verbose"],
        ] {
            let inv = parse(&argv(parts)).unwrap();
            assert!(inv.obs.verbose, "verbose not seen in {parts:?}");
            assert_eq!(
                inv.command,
                Command::Measure {
                    network: "resnet50".into(),
                    precision: Precision::Int8
                }
            );
        }
    }

    #[test]
    fn parses_trace_out_with_other_flags() {
        let inv = parse(&argv(&[
            "explore",
            "--trace-out",
            "run.jsonl",
            "--deadline",
            "0.9",
            "-v",
        ]))
        .unwrap();
        assert_eq!(inv.obs.trace_out.as_deref(), Some("run.jsonl"));
        assert!(inv.obs.verbose);
        assert_eq!(
            inv.command,
            Command::Explore {
                deadline_ms: 0.9,
                extended: false,
                json: false,
                jobs: 1,
                no_cache: false
            }
        );
    }

    #[test]
    fn trace_out_requires_a_path() {
        let err = parse(&argv(&["zoo", "--trace-out"])).unwrap_err();
        assert!(err.contains("--trace-out"));
    }

    #[test]
    fn rejects_mistyped_flags() {
        let err = parse(&argv(&["explore", "--trace-ou", "x.jsonl"])).unwrap_err();
        assert!(err.contains("--trace-ou"), "{err}");
        let err = parse(&argv(&["explore", "--deadlin", "0.9"])).unwrap_err();
        assert!(err.contains("--deadlin"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&argv(&["frobnicate"])).is_err());
        assert!(parse(&argv(&[])).is_err());
        assert!(parse(&argv(&["measure"])).is_err());
        assert!(parse(&argv(&["cut", "resnet50", "many"])).is_err());
        assert!(parse(&argv(&["measure", "x", "--precision", "int4"])).is_err());
    }
}
