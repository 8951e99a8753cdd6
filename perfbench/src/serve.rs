//! The serve workloads: one cold `netcut serve` run per iteration —
//! scenario build, closed- or open-loop simulation, summary, and both
//! serialized documents.

use crate::alloc;
use crate::trace::Tracer;
use crate::{fnv1a, ratio, Iteration};
use netcut::eval::par_map_with_jobs;
use netcut_obs as obs;
use netcut_serve::{
    build_ladder_for, reference_matrix, service_noise_ppm, stress_scenario, Recalibrator, RunMeta,
    Scenario, ScenarioConfig, ScenarioRecalibrator, ServeSummary, TrnLadder, Workload,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// A serve workload: the scenario configuration every iteration builds.
pub struct Serve {
    cfg: ScenarioConfig,
}

impl Serve {
    /// `serve_stress`: the 10^6-request two-shard batching leg.
    pub fn stress(seed: u64, jobs: usize) -> Self {
        Self::with(stress_scenario().1, seed, jobs)
    }

    /// `serve_drift`: the reference matrix's closed-loop `drift` leg.
    pub fn drift(seed: u64, jobs: usize) -> Self {
        let cfg = reference_matrix()
            .into_iter()
            .find(|(key, _)| *key == "drift")
            .map(|(_, cfg)| cfg)
            .expect("the reference matrix has a drift leg");
        Self::with(cfg, seed, jobs)
    }

    fn with(cfg: ScenarioConfig, seed: u64, jobs: usize) -> Self {
        Serve {
            cfg: ScenarioConfig { seed, jobs, ..cfg },
        }
    }
}

/// Delegates to the scenario's recalibrator and, when tracing, times each
/// re-exploration and counts its evaluation-cache lookups.
struct TimedRecalibrator {
    inner: ScenarioRecalibrator,
    on: bool,
    calls: RefCell<Vec<(Instant, Instant)>>,
    hits: RefCell<(u64, u64)>,
}

impl Recalibrator for TimedRecalibrator {
    fn recalibrate(&self, shard: usize, generation: u64, calib_ppm: u64) -> Option<TrnLadder> {
        if !self.on {
            return self.inner.recalibrate(shard, generation, calib_ppm);
        }
        let before = eval_lookups();
        let start = Instant::now();
        let ladder = self.inner.recalibrate(shard, generation, calib_ppm);
        let end = Instant::now();
        let after = eval_lookups();
        self.calls.borrow_mut().push((start, end));
        let mut hits = self.hits.borrow_mut();
        hits.0 += after.0 - before.0;
        hits.1 += after.1 - before.1;
        ladder
    }
}

/// `(hits, misses)` of the evaluation caches so far (the program's own
/// always-on `obs` counters; no sink is involved).
pub fn eval_lookups() -> (u64, u64) {
    let snap = obs::snapshot();
    (
        snap.counter("eval.cache_hit"),
        snap.counter("eval.cache_miss"),
    )
}

impl crate::Workload for Serve {
    fn iterate(&mut self, tr: &mut Tracer) -> Iteration {
        let cfg = &self.cfg;
        let traced = tr.is_on();
        let counters = || {
            if !traced {
                return [0; 4];
            }
            let snap = obs::snapshot();
            [
                "eval.cache_hit",
                "eval.cache_miss",
                "recalib.triggers",
                "recalib.swaps",
            ]
            .map(|name| snap.counter(name))
        };
        let c0 = counters();

        // The blocking path: what one `serve` run costs its user.
        let start = Instant::now();
        let root = tr.begin("iteration");
        let built = tr.span("scenario.build", || Scenario::try_build(cfg.clone()));
        let setup_s = start.elapsed().as_secs_f64();
        let scenario = match built {
            Ok(s) => s,
            Err(e) => {
                tr.end(root);
                return Iteration::failed(setup_s, format!("scenario build failed: {e}"));
            }
        };
        let server = tr.span("scenario.server", || scenario.server());
        let tl_cfg = scenario.timeline_config();
        let recal = TimedRecalibrator {
            inner: scenario.recalibrator(),
            on: traced,
            calls: RefCell::new(Vec::new()),
            hits: RefCell::new((0, 0)),
        };
        let c1 = counters();
        let run = tr.begin("runtime.run_full");
        let (outcomes, timeline) = if cfg.recalibrate {
            server.run_recalibrating(
                &scenario.requests,
                &tl_cfg,
                &scenario.recalib_config(),
                &recal,
            )
        } else {
            server.run_with_timeline(&scenario.requests, &tl_cfg)
        };
        for &(s, e) in recal.calls.borrow().iter() {
            tr.record("recalib.reexplore", s, e);
        }
        tr.end(run);
        let c2 = counters();
        let (summary, _, summary_mb) = tr.span("summary.build", || {
            alloc::measure(|| {
                let meta = RunMeta::from_server(&server, cfg.duration_us);
                let mut summary = ServeSummary::from_outcomes(&outcomes, &meta);
                summary.attach_timeline(&timeline);
                summary
            })
        });
        let json = tr.span("summary.serialize", || summary.to_json());
        let jsonl = tr.span("timeline.serialize", || timeline.to_jsonl());
        tr.end(root);
        let wall_s = start.elapsed().as_secs_f64();

        let requests = scenario.requests.len() as u64;
        let mut failures = Vec::new();
        let disposed = summary.served + summary.missed + summary.rejected + summary.dropped;
        if disposed != summary.total || summary.total != requests {
            failures.push(format!(
                "conservation: served+missed+rejected+dropped = {disposed}, total = {}, generated = {requests}",
                summary.total
            ));
        }
        if summary.acc_goodput_mrps > summary.goodput_mrps {
            failures.push(format!(
                "acc_goodput {} mrps exceeds goodput {} mrps",
                summary.acc_goodput_mrps, summary.goodput_mrps
            ));
        }
        if cfg.recalibrate && summary.recalibrations == 0 {
            failures.push("closed loop never recalibrated".into());
        }
        let outputs = vec![
            ("requests", requests.to_string()),
            ("sim_miss_ppm", summary.miss_rate_ppm.to_string()),
            ("sim_latency_p99_us", summary.latency_p99_us.to_string()),
            (
                "sim_acc_goodput_rps",
                format!(
                    "{}.{:03}",
                    summary.acc_goodput_mrps / 1000,
                    summary.acc_goodput_mrps % 1000
                ),
            ),
            ("recalibrations", summary.recalibrations.to_string()),
        ];
        let digest = fnv1a(fnv1a(crate::FNV_OFFSET, json.as_bytes()), jsonl.as_bytes());

        let mut layers = BTreeMap::new();
        if traced {
            // The histogram counts completions by the size of their batch.
            let completions: u64 = summary.batch_histogram.iter().sum();
            let batches: u64 = (1..)
                .zip(&summary.batch_histogram)
                .map(|(size, n)| n / size)
                .sum();
            layers.insert("runtime.batches", batches as f64);
            layers.insert(
                "batch.fill_ratio",
                ratio(completions, batches) / cfg.batch_max.max(1) as f64,
            );
            layers.insert("summary.alloc_mb", summary_mb);
            layers.insert("recalib.triggers", (c2[2] - c1[2]) as f64);
            layers.insert("recalib.swaps", (c2[3] - c1[3]) as f64);
            let (h, m) = (c2[0] - c0[0], c2[1] - c0[1]);
            layers.insert("eval.hit_ratio", ratio(h, h + m));
            let (rh, rm) = *recal.hits.borrow();
            layers.insert("eval.reexplore_hit_ratio", ratio(rh, rh + rm));
            let run_full_s = tr.dur_s(run);
            let reexplore_s: f64 = recal
                .calls
                .borrow()
                .iter()
                .map(|(s, e)| e.duration_since(*s).as_secs_f64())
                .sum();
            self.probe(tr, &scenario, &mut layers, run_full_s, reexplore_s);
        }
        Iteration {
            wall_s,
            setup_s,
            items: requests,
            digest,
            outputs,
            failures,
            layers,
        }
    }
}

impl Serve {
    /// Attribution probes, off the blocking path: re-issue the calls a
    /// blocking span is made of, one layer at a time.
    fn probe(
        &self,
        tr: &mut Tracer,
        scenario: &Scenario,
        layers: &mut BTreeMap<&'static str, f64>,
        run_full_s: f64,
        reexplore_s: f64,
    ) {
        let cfg = &self.cfg;
        let requests = &scenario.requests;
        let probes = tr.begin("probes");
        let server = scenario.server();

        let plain = tr.begin("runtime.run");
        let (outcomes, allocs, alloc_mb) = alloc::measure(|| server.run(requests));
        tr.end(plain);
        drop(outcomes);
        let run_s = tr.dur_s(plain);
        layers.insert(
            "runtime.allocs_per_request",
            ratio(allocs, requests.len() as u64),
        );
        layers.insert("runtime.alloc_mb", alloc_mb);
        if cfg.recalibrate {
            let open = tr.begin("runtime.run_with_timeline");
            drop(std::hint::black_box(
                server.run_with_timeline(requests, &scenario.timeline_config()),
            ));
            tr.end(open);
            let open_s = tr.dur_s(open);
            layers.insert("timeline.record_s", open_s - run_s);
            layers.insert("recalib.controller_s", run_full_s - open_s - reexplore_s);
        } else {
            layers.insert("timeline.record_s", run_full_s - run_s);
            layers.insert("recalib.controller_s", 0.0);
        }

        let mut devices: Vec<&netcut_sim::DeviceModel> = Vec::new();
        for i in 0..cfg.shards {
            let device = &cfg.devices[i % cfg.devices.len()];
            if !devices.iter().any(|d| d.name == device.name) {
                devices.push(device);
            }
        }
        for device in &devices {
            drop(std::hint::black_box(
                tr.span("scenario.ladder", || build_ladder_for(cfg, device)),
            ));
        }
        let generated = tr.span("request.generate", || {
            Workload {
                rps: cfg.rps,
                duration_us: cfg.duration_us,
                emg_share_ppm: cfg.emg_share_ppm,
                seed: cfg.seed,
            }
            .generate()
        });
        // One noise draw per request per shard on the worker pool, as the
        // build makes them (its per-shard seeds differ; the cost does not).
        let noise = tr.span("request.noise", || {
            let ids: Vec<u64> = generated.iter().map(|r| r.id).collect();
            (0..cfg.shards)
                .map(|i| {
                    let jitter = cfg.devices[i % cfg.devices.len()].jitter_ppm();
                    let seed = cfg.seed.wrapping_add(i as u64);
                    par_map_with_jobs(cfg.jobs, ids.clone(), move |_, id| {
                        service_noise_ppm(seed, id, jitter)
                    })
                })
                .collect::<Vec<Vec<u64>>>()
        });
        std::hint::black_box(noise);
        tr.end(probes);
    }
}
