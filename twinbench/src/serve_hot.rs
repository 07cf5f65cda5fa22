//! serve_hot: loopback TCP, closed loop on 2 connections, every query a
//! cache hit. Transport, protocol, pool admission and the cache lookup
//! do almost all the work; fork, kernel and cooling do none.

use crate::check::{corrupt, matches_reference, same_outcome};
use crate::gen::{hot_specs, HotOp, HotStream, HOT_SNAPSHOT_S};
use crate::serve::{self, call, expect, registry, spawn_server, unexpected, Reference};
use crate::trace::{self, Tracer};
use crate::{repeat_setup, Args, RunOutput, Tally};
use exadigit_service::{
    run_whatif, scenario_fingerprint, BatchOutcome, QueryCache, Request, Response, ServiceClient,
    TelemetryFeed, TwinService, WhatIfOutcome, WhatIfSpec,
};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

/// Closed-loop client connections (one thread each).
const CONNECTIONS: u64 = 2;
/// Feed span: the noon snapshot needs one day; the second keeps the
/// feed from running dry in `Status`.
const FEED_DAYS: u64 = 2;
/// At most this many measured requests are replayed in-process when
/// traced.
const MAX_REPLAY: usize = 4_000;

struct Sample {
    op: HotOp,
    start: Instant,
    end: Instant,
}

fn feed(seed: u64) -> TelemetryFeed {
    TelemetryFeed::synthetic(seed, FEED_DAYS)
}

/// The answer `op` must get, given the warmed outcomes.
fn verify(
    op: &HotOp,
    response: &std::io::Result<Response>,
    expected: &[WhatIfOutcome],
) -> Result<(), String> {
    let mismatch =
        |k: usize| format!("answer for warmed spec {k} differs from its warm-up outcome");
    match (op, response) {
        (HotOp::Query(k), Ok(Response::Answer { outcome, .. })) => {
            same_outcome(outcome, &expected[*k])
                .then_some(())
                .ok_or_else(|| mismatch(*k))
        }
        (HotOp::Status, Ok(Response::Status(s))) => (s.now_s == HOT_SNAPSHOT_S && s.snapshots == 1)
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "status reports t = {} s and {} snapshots",
                    s.now_s, s.snapshots
                )
            }),
        (HotOp::Batch(ks), Ok(Response::Answers { outcomes, .. }))
            if outcomes.len() == ks.len() =>
        {
            for (k, slot) in ks.iter().zip(outcomes) {
                match slot {
                    BatchOutcome::Ok(o) if same_outcome(o, &expected[*k]) => {}
                    _ => return Err(mismatch(*k)),
                }
            }
            Ok(())
        }
        (op, response) => Err(unexpected(&format!("{op:?}"), response)),
    }
}

fn load(
    addr: SocketAddr,
    seed: u64,
    connection: u64,
    args: &Args,
    specs: &[WhatIfSpec],
    expected: &[WhatIfOutcome],
    barrier: &Barrier,
) -> Result<(Vec<Sample>, Tally), String> {
    let mut client = ServiceClient::connect(addr).map_err(|e| format!("connect: {e}"));
    barrier.wait();
    let client = client.as_mut().map_err(|e| e.clone())?;
    let deadline = Instant::now() + args.seconds;
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for op in HotStream::new(seed, connection) {
        if Instant::now() >= deadline {
            break;
        }
        let c = call(client, &op.request(specs));
        tally.record(verify(&op, &c.response, expected));
        samples.push(Sample {
            op,
            start: c.start,
            end: c.end,
        });
    }
    Ok((samples, tally))
}

pub fn run(args: &Args) -> Result<RunOutput, String> {
    let seed = args.seed;
    let specs = hot_specs(seed);
    let ((handle, warm), setup_s) = repeat_setup(|_| {
        let handle = spawn_server(feed(seed), seed, None)?;
        let mut client =
            ServiceClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        expect(
            &mut client,
            &Request::Advance {
                seconds: HOT_SNAPSHOT_S,
            },
        )?;
        expect(
            &mut client,
            &Request::Snapshot {
                label: "noon".into(),
            },
        )?;
        let mut warm = Vec::with_capacity(specs.len());
        for spec in &specs {
            match expect(
                &mut client,
                &Request::Query {
                    snapshot_id: 1,
                    spec: spec.clone(),
                },
            )? {
                Response::Answer { outcome, .. } => warm.push(outcome),
                other => return Err(format!("warm-up answered {other:?}")),
            }
        }
        Ok((handle, warm))
    })?;

    // The warm-up answers must be what the twin computes in-process from
    // an identically built noon snapshot.
    let mut tally = Tally::default();
    let mut reference = Reference::new(feed(seed))?;
    reference.advance(HOT_SNAPSHOT_S)?;
    let mut store = serve::reference_store(seed);
    let noon = store.take(&reference.twin, "noon".into())?;
    for (k, spec) in specs.iter().enumerate() {
        let computed = run_whatif(&noon, spec, Some(1))?;
        tally.record(matches_reference(&warm[k], &computed, || {
            format!("warm-up answer {k}")
        }));
    }
    let mut expected = warm.clone();
    if args.corrupt_expected {
        corrupt(&mut expected[0]);
    }

    let mut probe = ServiceClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let before = registry(&mut probe)?;
    let barrier = Barrier::new(CONNECTIONS as usize);
    let addr = handle.addr();
    let per_connection: Vec<Result<(Vec<Sample>, Tally), String>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (specs, expected, barrier) = (&specs, &expected, &barrier);
                s.spawn(move || load(addr, seed, c, args, specs, expected, barrier))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load threads do not panic"))
            .collect()
    });
    let after = registry(&mut probe)?;
    let mut samples: Vec<Vec<Sample>> = Vec::new();
    for result in per_connection {
        let (s, t) = result?;
        tally.absorb(t);
        samples.push(s);
    }
    let all: Vec<&Sample> = samples.iter().flatten().collect();
    if all.is_empty() {
        return Err("no request completed".into());
    }
    let window_start = all.iter().map(|s| s.start).min().expect("non-empty");
    let window_end = all.iter().map(|s| s.end).max().expect("non-empty");
    let mut values = crate::report::Values::default();
    values.set("setup_s", setup_s);
    let mut table = vec![crate::report::set_latency(
        &mut values,
        &format!("requests on {CONNECTIONS} connections"),
        all.iter()
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect(),
        (window_end - window_start).as_secs_f64(),
    )];

    if args.trace {
        let svc = handle.service();
        let mut cache = QueryCache::new(1024);
        for (spec, outcome) in specs.iter().zip(&warm) {
            cache.insert(1, scenario_fingerprint(spec), outcome.clone());
        }
        let tracer = Tracer::new(true);
        let stride = all.len().div_ceil(MAX_REPLAY);
        let replayed: Vec<(u64, &Sample)> = all
            .iter()
            .step_by(stride)
            .enumerate()
            .map(|(i, s)| (i as u64, *s))
            .collect();
        let mut bytes = (0usize, 0usize);
        let mut replay = |tracer: &Tracer, tally: Option<&mut Tally>| -> Result<(), String> {
            let mut tally = tally;
            for (id, sample) in &replayed {
                tracer.record("client.rtt", *id, sample.start, sample.end);
                let request = sample.op.request(&specs);
                let (response, req_b, resp_b) = serve::replay_wire(tracer, *id, &request, |r| {
                    handle_hot(tracer, *id, r, &mut store, &mut cache, &svc)
                })?;
                if let Some(t) = tally.as_deref_mut() {
                    t.record(verify(&sample.op, &Ok(response), &expected));
                    bytes.0 += req_b;
                    bytes.1 += resp_b;
                }
            }
            Ok(())
        };
        replay(&tracer, Some(&mut tally))?;
        let overhead = trace::overhead_pct(|t| replay(t, None))?;
        let spans = tracer.spans();
        let n = replayed.len() as f64;
        values.set("protocol.request_bytes", bytes.0 as f64 / n);
        values.set("protocol.response_bytes", bytes.1 as f64 / n);
        values.set("trace.overhead_pct", overhead);
        serve::layer_values(&mut values, &spans, &before, &after, &mut table);
        values.set("trace.spans", spans.len() as f64);
        trace::write_jsonl(&spans, &crate::spans_path(args))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    drop(probe);
    handle.shutdown();
    Ok(RunOutput {
        tally,
        values,
        table,
    })
}

/// The server's handler stages for a serve_hot request, called in the
/// order the server calls them.
fn handle_hot(
    tracer: &Tracer,
    id: u64,
    request: &Request,
    store: &mut exadigit_service::SnapshotStore,
    cache: &mut QueryCache,
    svc: &TwinService,
) -> Response {
    match request {
        Request::Status => tracer.span("service.status", id, || svc.handle(request)),
        _ => serve::replay_query(tracer, id, request, store, cache),
    }
}
