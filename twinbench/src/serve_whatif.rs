//! serve_whatif: loopback TCP, reads beside writes. An analyst
//! connection asks uncached what-ifs of 4 setup snapshots in a closed
//! loop while an ingest connection advances the live twin on a fixed
//! schedule, snapshotting (persisted) and dropping as it goes. The run
//! ends with a checkpoint, a shutdown, and a recovery from disk.
//!
//! Fork, the event kernel, power recompute, cache insert, snapshot
//! take/persist and recovery do the work. Analysts only query setup
//! snapshots, so what the writes cost does not depend on how fast the
//! analyst runs.

use crate::check::{corrupt, matches_reference};
use crate::gen::{WhatIfStream, WHATIF_FIRST_SNAPSHOT_S, WHATIF_SNAPSHOTS, WHATIF_SNAPSHOT_GAP_S};
use crate::serve::{self, call, expect, registry, spawn_server, unexpected, Reference};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{repeat_setup, Args, RunOutput, Scratch, Tally};
use exadigit_core::twin::DigitalTwin;
use exadigit_service::{
    run_whatif, QueryCache, Request, Response, ServiceClient, TelemetryFeed, TwinService,
    TwinSnapshot, WhatIfOutcome, WhatIfSpec,
};
use exadigit_sim::clock::SECONDS_PER_DAY;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One ingest tick: `Advance { 900 }` every 250 ms of wall time.
const INGEST_PERIOD: Duration = Duration::from_millis(250);
const INGEST_STEP_S: u64 = 900;
/// Every 4th tick also snapshots and drops the ingest's previous one.
const SNAPSHOT_EVERY: u64 = 4;
/// Analyst answers checked against the in-process twin (evenly spaced).
const CHECKED: usize = 32;
/// At most this many analyst requests are replayed in-process when
/// traced.
const MAX_REPLAY: usize = 200;

/// Live-twin time when setup ends (the last setup snapshot).
const SETUP_END_S: u64 = WHATIF_FIRST_SNAPSHOT_S + (WHATIF_SNAPSHOTS - 1) * WHATIF_SNAPSHOT_GAP_S;

/// The synthetic feed cut to the setup span plus everything the ingest
/// can advance within the run. A live stream carries no jobs from the
/// future; cutting the feed keeps the checkpoint from carrying them.
fn feed(seed: u64, seconds: Duration) -> TelemetryFeed {
    let ticks = (seconds.as_secs_f64() / INGEST_PERIOD.as_secs_f64()).ceil() as u64 + 1;
    let span_s = SETUP_END_S + ticks * INGEST_STEP_S;
    let full = TelemetryFeed::synthetic(seed, span_s.div_ceil(SECONDS_PER_DAY));
    let jobs = full.clone().poll(span_s);
    TelemetryFeed::new(jobs, full.wet_bulb().clone(), span_s)
}

struct Query {
    index: u64,
    snapshot_id: u64,
    spec: WhatIfSpec,
    start: Instant,
    end: Instant,
    outcome: Option<WhatIfOutcome>,
}

fn analyst(
    addr: SocketAddr,
    seed: u64,
    until: Duration,
    barrier: &Barrier,
) -> Result<(Vec<Query>, Tally), String> {
    let client = ServiceClient::connect(addr).map_err(|e| format!("connect: {e}"));
    barrier.wait();
    let mut client = client?;
    let deadline = Instant::now() + until;
    let mut queries = Vec::new();
    let mut tally = Tally::default();
    for (index, (snapshot_id, spec)) in (0..).zip(WhatIfStream::new(seed)) {
        if Instant::now() >= deadline {
            break;
        }
        let c = call(
            &mut client,
            &Request::Query {
                snapshot_id,
                spec: spec.clone(),
            },
        );
        let outcome = match c.response {
            Ok(Response::Answer {
                cached: false,
                outcome,
            }) => {
                tally.record(Ok(()));
                Some(outcome)
            }
            ref other => {
                tally.record(Err(unexpected(&format!("analyst query {index}"), other)));
                None
            }
        };
        queries.push(Query {
            index,
            snapshot_id,
            spec,
            start: c.start,
            end: c.end,
            outcome,
        });
    }
    Ok((queries, tally))
}

/// The ingest schedule's measurements.
#[derive(Default)]
struct Ingest {
    /// Ticks completed (each one `Advance { 900 }`).
    ticks: u64,
    /// `Advance` completion minus its due time, ms.
    latency_ms: Vec<f64>,
    /// Send time minus due time, ms: how late the generator ran.
    late_ms: Vec<f64>,
}

fn ingest(addr: SocketAddr, until: Duration, barrier: &Barrier) -> Result<(Ingest, Tally), String> {
    let client = ServiceClient::connect(addr).map_err(|e| format!("connect: {e}"));
    barrier.wait();
    let mut client = client?;
    let start = Instant::now();
    let mut out = Ingest::default();
    let mut tally = Tally::default();
    let mut previous: Option<u64> = None;
    for tick in 0.. {
        let due = start + INGEST_PERIOD * tick as u32;
        if due >= start + until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let c = call(
            &mut client,
            &Request::Advance {
                seconds: INGEST_STEP_S,
            },
        );
        out.late_ms
            .push(c.start.saturating_duration_since(due).as_secs_f64() * 1e3);
        out.latency_ms
            .push(c.end.saturating_duration_since(due).as_secs_f64() * 1e3);
        let now_s = SETUP_END_S + (tick + 1) * INGEST_STEP_S;
        tally.record(match &c.response {
            Ok(Response::Advanced { now_s: t, .. }) if *t == now_s => Ok(()),
            other => Err(unexpected(&format!("ingest advance {tick}"), other)),
        });
        out.ticks += 1;
        if tick % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
            let c = call(
                &mut client,
                &Request::Snapshot {
                    label: format!("ingest-{tick}"),
                },
            );
            match &c.response {
                Ok(Response::SnapshotTaken(info)) if info.taken_at_s == now_s => {
                    tally.record(Ok(()));
                    if let Some(id) = previous.replace(info.id) {
                        let c = call(&mut client, &Request::DropSnapshot { snapshot_id: id });
                        tally.record(match &c.response {
                            Ok(Response::Dropped { snapshot_id }) if *snapshot_id == id => Ok(()),
                            other => Err(unexpected(&format!("ingest drop {id}"), other)),
                        });
                    }
                }
                other => tally.record(Err(unexpected(&format!("ingest snapshot {tick}"), other))),
            }
        }
    }
    Ok((out, tally))
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let seed = args.seed;
    let scratch = Scratch::new("serve_whatif")?;
    let ((handle, dir), setup_s) = repeat_setup(|i| {
        let dir = scratch.path().join(format!("setup-{i}"));
        let handle = spawn_server(feed(seed, args.seconds), seed, Some(&dir))?;
        let mut client =
            ServiceClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        expect(
            &mut client,
            &Request::Advance {
                seconds: WHATIF_FIRST_SNAPSHOT_S,
            },
        )?;
        for k in 0..WHATIF_SNAPSHOTS {
            if k > 0 {
                expect(
                    &mut client,
                    &Request::Advance {
                        seconds: WHATIF_SNAPSHOT_GAP_S,
                    },
                )?;
            }
            match expect(
                &mut client,
                &Request::Snapshot {
                    label: format!("setup-{k}"),
                },
            )? {
                Response::SnapshotTaken(info) if info.id == k + 1 => {}
                other => return Err(format!("setup snapshot {k} answered {other:?}")),
            }
        }
        Ok((handle, dir))
    })?;

    // The setup snapshots rebuilt in-process: answers are checked against
    // these, and the traced run replays the handler stages on them.
    let mut reference = Reference::new(feed(seed, args.seconds))?;
    let mut store = serve::reference_store(seed);
    let mut snapshots: Vec<Arc<TwinSnapshot>> = Vec::new();
    reference.advance(WHATIF_FIRST_SNAPSHOT_S)?;
    for k in 0..WHATIF_SNAPSHOTS {
        if k > 0 {
            reference.advance(WHATIF_SNAPSHOT_GAP_S)?;
        }
        snapshots.push(store.take(&reference.twin, format!("setup-{k}"))?);
    }

    let mut probe = ServiceClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let before = registry(&mut probe)?;
    let barrier = Barrier::new(2);
    let (analysed, ingested) = std::thread::scope(|s| {
        let a = s.spawn(|| analyst(handle.addr(), seed, args.seconds, &barrier));
        let i = s.spawn(|| ingest(handle.addr(), args.seconds, &barrier));
        (
            a.join().expect("analyst does not panic"),
            i.join().expect("ingest does not panic"),
        )
    });
    let after = registry(&mut probe)?;
    let (queries, analyst_tally) = analysed?;
    let (ingest, ingest_tally) = ingested?;
    let mut tally = Tally::default();
    tally.absorb(analyst_tally);
    tally.absorb(ingest_tally);
    if queries.is_empty() {
        return Err("no analyst query completed".into());
    }

    // A sample of the answers, recomputed in-process.
    let stride = queries.len().div_ceil(CHECKED);
    for q in queries.iter().step_by(stride) {
        if let Some(got) = &q.outcome {
            let mut want = run_whatif(&snapshots[q.snapshot_id as usize - 1], &q.spec, Some(1))?;
            if args.corrupt_expected {
                corrupt(&mut want);
            }
            tally.record(matches_reference(got, &want, || {
                format!("analyst answer {}", q.index)
            }));
        }
    }

    // End phase: checkpoint, shut down, recover, and answer the first
    // analyst query again from the (now spilled) setup snapshot.
    let live_s = SETUP_END_S + ingest.ticks * INGEST_STEP_S;
    tally.record(match probe.request(&Request::Checkpoint) {
        Ok(Response::Checkpointed { now_s, .. }) if now_s == live_s => Ok(()),
        other => Err(unexpected("checkpoint", &other)),
    });
    let svc = handle.service();
    let checkpoint_ms = if args.trace {
        let started = Instant::now();
        let r = svc.handle(&Request::Checkpoint);
        tally.record(match r {
            Response::Checkpointed { .. } => Ok(()),
            other => Err(unexpected("in-process checkpoint", &Ok(other))),
        });
        started.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    drop(svc);
    let file_bytes = snapshot_file_bytes(&dir)?;
    drop(probe);
    handle.shutdown();

    let first = &queries[0];
    let started = Instant::now();
    let recovered = TwinService::recover(&dir)?;
    let load_s = started.elapsed().as_secs_f64();
    let answer = recovered.handle(&Request::Query {
        snapshot_id: first.snapshot_id,
        spec: first.spec.clone(),
    });
    let recover_s = started.elapsed().as_secs_f64();
    let mut want = run_whatif(
        &snapshots[first.snapshot_id as usize - 1],
        &first.spec,
        Some(1),
    )?;
    if args.corrupt_expected {
        corrupt(&mut want);
    }
    tally.record(match &answer {
        Response::Answer { outcome, .. } => {
            matches_reference(outcome, &want, || "the first query after recovery".into())
        }
        other => Err(unexpected("query after recovery", &Ok(other.clone()))),
    });
    let (n, sum, _, _) = serve::histogram(
        &recovered.metrics_report(),
        "exadigit_snapshot_rehydrate_seconds",
        None,
    );
    let rehydrate_ms = if n > 0 { sum / n as f64 * 1e3 } else { 0.0 };
    drop(recovered);

    let window_start = queries.iter().map(|q| q.start).min().expect("non-empty");
    let window_end = queries.iter().map(|q| q.end).max().expect("non-empty");
    let mut values = crate::report::Values::default();
    values.set("setup_s", setup_s);
    let latency = crate::report::set_latency(
        &mut values,
        "analyst queries",
        queries
            .iter()
            .map(|q| (q.end - q.start).as_secs_f64() * 1e3)
            .collect(),
        (window_end - window_start).as_secs_f64(),
    );
    values.set("ingest.p50_ms", median(&ingest.latency_ms));
    values.set("ingest.late_p50_ms", median(&ingest.late_ms));
    values.set("recover.total_s", recover_s);
    values.set("persist.recover_load_ms", load_s * 1e3);
    values.set("snapshot.rehydrate_ms", rehydrate_ms);
    values.set("snapshot.file_bytes", file_bytes);
    values.set("persist.checkpoint_ms", checkpoint_ms);
    let (n, sum, _, _) = serve::histogram(&after, "exadigit_snapshot_persist_seconds", None);
    values.set(
        "snapshot.persist_ms",
        if n > 0 { sum / n as f64 * 1e3 } else { 0.0 },
    );
    values.set(
        "whatif.draws_total",
        queries.iter().map(|q| q.spec.draws.max(1)).sum::<u64>() as f64,
    );
    let mut table = vec![
        latency,
        format!(
            "  ingest: {} ticks, Advance p50 {:.2} ms from due, generator late p50 {:.3} ms",
            ingest.ticks,
            median(&ingest.latency_ms),
            median(&ingest.late_ms)
        ),
        format!(
            "  recovery: {recover_s:.3} s (load {:.1} ms, rehydrate {rehydrate_ms:.1} ms)",
            load_s * 1e3
        ),
    ];

    if args.trace {
        let tracer = Tracer::new(true);
        let stride = queries.len().div_ceil(MAX_REPLAY);
        let replayed: Vec<&Query> = queries.iter().step_by(stride).collect();
        // Each pass starts from a cold cache, as the measured run did.
        let mut bytes = (0usize, 0usize);
        let mut replay = |tracer: &Tracer,
                          replayed: &[&Query],
                          tally: Option<&mut Tally>|
         -> Result<(), String> {
            let mut tally = tally;
            let mut cache = QueryCache::new(1024);
            for q in replayed {
                tracer.record("client.rtt", q.index, q.start, q.end);
                let request = Request::Query {
                    snapshot_id: q.snapshot_id,
                    spec: q.spec.clone(),
                };
                let (response, req_b, resp_b) =
                    serve::replay_wire(tracer, q.index, &request, |r| {
                        serve::replay_query(tracer, q.index, r, &mut store, &mut cache)
                    })?;
                if let Some(t) = tally.as_deref_mut() {
                    bytes.0 += req_b;
                    bytes.1 += resp_b;
                    t.record(match (&response, &q.outcome) {
                        (Response::Answer { outcome, .. }, Some(got)) => {
                            matches_reference(got, outcome, || {
                                format!("replayed query {}", q.index)
                            })
                        }
                        (Response::Answer { .. }, None) => Ok(()),
                        (other, _) => Err(unexpected("replayed query", &Ok(other.clone()))),
                    });
                }
            }
            Ok(())
        };
        replay(&tracer, &replayed, Some(&mut tally))?;
        let probe_set: Vec<&Query> = replayed.iter().take(16).copied().collect();
        let overhead = trace::overhead_pct(|t| replay(t, &probe_set, None));
        values.set("trace.overhead_pct", overhead?);

        // Layer probes outside the request path: fork and run of the same
        // horizons, and the ingest's own work replayed on the reference.
        let mut sim_s = 0u64;
        for q in &replayed {
            let snapshot = &snapshots[q.snapshot_id as usize - 1];
            let mut fork = tracer.span("twin.fork", q.index, || snapshot.fork())?;
            tracer
                .span("twin.run", q.index, || fork.run(q.spec.horizon_s))
                .map_err(|e| e.to_string())?;
            sim_s += q.spec.horizon_s;
        }
        let mut previous = None;
        for tick in 0..ingest.ticks {
            tracer.span("ingest.advance", tick, || reference.advance(INGEST_STEP_S))?;
            if tick % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
                let taken = tracer.span("snapshot.take", tick, || {
                    store.take(&reference.twin, format!("ingest-{tick}"))
                })?;
                if let Some(id) = previous.replace(taken.id) {
                    store.drop_snapshot(id);
                }
            }
        }
        let state = tracer.span("twin.save_state", 0, || reference.twin.save_state())?;
        let restored = tracer.span("twin.from_state", 0, || DigitalTwin::from_state(&state))?;
        tally.record(if restored.now() == live_s {
            Ok(())
        } else {
            Err("restored twin time".into())
        });

        let spans = tracer.spans();
        let rows = trace::summarize(&spans);
        let total_ms = |name: &str| rows.get(name).map_or(0.0, |r| r.total_ns as f64 / 1e6);
        let p50 = |name: &str| rows.get(name).map_or(0.0, |r| r.p50_us());
        values.set(
            "twin.run_us_per_sim_h",
            total_ms("twin.run") * 1e3 / (sim_s as f64 / 3_600.0),
        );
        values.set(
            "kernel.self_ms_per_day",
            total_ms("twin.run") / (sim_s as f64 / SECONDS_PER_DAY as f64),
        );
        values.set("snapshot.take_us", p50("snapshot.take"));
        values.set("twin.save_state_ms", total_ms("twin.save_state"));
        values.set("twin.from_state_ms", total_ms("twin.from_state"));
        values.set(
            "protocol.request_bytes",
            bytes.0 as f64 / replayed.len() as f64,
        );
        values.set(
            "protocol.response_bytes",
            bytes.1 as f64 / replayed.len() as f64,
        );
        serve::layer_values(&mut values, &spans, &before, &after, &mut table);
        values.set("trace.spans", spans.len() as f64);
        trace::write_jsonl(&spans, &crate::spans_path(args))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(RunOutput {
        tally,
        values,
        table,
    })
}

/// Mean size of the snapshot files in a persist directory.
fn snapshot_file_bytes(dir: &std::path::Path) -> Result<f64, String> {
    let mut sizes = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_name().to_string_lossy().starts_with("snap-") {
            sizes.push(entry.metadata().map_err(|e| e.to_string())?.len() as f64);
        }
    }
    Ok(if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().sum::<f64>() / sizes.len() as f64
    })
}
