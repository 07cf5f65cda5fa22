//! What both serving workloads share: the server sizing, the timed client
//! call, registry readings from the `Metrics` verb, and the in-process
//! reference twin that answers are checked against.

use crate::trace::Tracer;
use exadigit_core::config::TwinConfig;
use exadigit_core::twin::DigitalTwin;
use exadigit_service::{
    read_message, run_whatif, scenario_fingerprint, write_message, BatchOutcome, MetricsReport,
    QueryCache, Request, Response, ServerConfig, ServerHandle, ServiceClient, SnapshotStore,
    TelemetryFeed, TwinServer, TwinService,
};
use std::io;
use std::time::Instant;

/// `Busy` answers a client sleeps through before the request counts as
/// failed.
pub const RETRY_BUDGET: u32 = 8;

/// Snapshot-store capacity; the service's default, restated so the
/// in-process reference store derives identical snapshot seeds.
const MAX_SNAPSHOTS: usize = 32;

/// The twin every serving workload runs: Frontier, power only.
pub fn twin_config() -> TwinConfig {
    TwinConfig::frontier_power_only()
}

/// Build the service and spawn it on loopback, sized for a small host:
/// 2 workers and 1 reader instead of the 4 + 2 default, and what-if
/// fan-out on 1 thread so UQ draws do not compete with the workers.
pub fn spawn_server(
    feed: TelemetryFeed,
    seed: u64,
    persist: Option<&std::path::Path>,
) -> Result<ServerHandle, String> {
    let mut service = TwinService::new(twin_config(), feed, seed)?.with_threads(1);
    if let Some(dir) = persist {
        service = service.with_persist_dir(dir)?;
    }
    let config = ServerConfig {
        workers: 2,
        readers: 1,
        ..ServerConfig::default()
    };
    let server = TwinServer::bind(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(server.with_config(config).spawn())
}

/// One client round trip, Busy retries included.
pub struct Call {
    pub start: Instant,
    pub end: Instant,
    pub response: io::Result<Response>,
}

pub fn call(client: &mut ServiceClient, request: &Request) -> Call {
    let start = Instant::now();
    let response = client.request_with_retry(request, RETRY_BUDGET);
    Call {
        start,
        end: Instant::now(),
        response,
    }
}

/// Send a setup request that must succeed, returning its response.
pub fn expect(client: &mut ServiceClient, request: &Request) -> Result<Response, String> {
    match client.request_with_retry(request, RETRY_BUDGET) {
        Ok(Response::Error { message }) => Err(format!("{request:?} failed: {message}")),
        Ok(Response::Busy { .. }) => Err(format!("{request:?} still Busy after retries")),
        Ok(response) => Ok(response),
        Err(e) => Err(format!("{request:?}: {e}")),
    }
}

/// Why a response is not the expected kind, for the failure log.
pub fn unexpected(what: &str, response: &io::Result<Response>) -> String {
    match response {
        Ok(Response::Busy { .. }) => format!("{what}: Busy beyond {RETRY_BUDGET} retries"),
        Ok(Response::Error { message }) => format!("{what}: error: {message}"),
        Ok(other) => format!("{what}: unexpected response {other:?}"),
        Err(e) => format!("{what}: I/O error: {e}"),
    }
}

/// Read the registry through the public `Metrics` verb.
pub fn registry(client: &mut ServiceClient) -> Result<MetricsReport, String> {
    match expect(client, &Request::Metrics)? {
        Response::Metrics(report) => Ok(report),
        other => Err(format!("Metrics answered {other:?}")),
    }
}

/// A counter's value, summed over every label set matching `label`.
pub fn counter(report: &MetricsReport, name: &str, label: Option<(&str, &str)>) -> u64 {
    report
        .counters
        .iter()
        .filter(|c| c.name == name)
        .filter(|c| label.is_none_or(|(k, v)| c.labels.iter().any(|(a, b)| a == k && b == v)))
        .map(|c| c.value)
        .sum()
}

/// (count, sum, p50, p99) of a histogram with the given label (or the
/// unlabelled one).
pub fn histogram(
    report: &MetricsReport,
    name: &str,
    label: Option<(&str, &str)>,
) -> (u64, f64, f64, f64) {
    report
        .histograms
        .iter()
        .find(|h| {
            h.name == name
                && label.is_none_or(|(k, v)| h.labels.iter().any(|(a, b)| a == k && b == v))
        })
        .map_or((0, 0.0, 0.0, 0.0), |h| (h.count, h.sum, h.p50, h.p99))
}

/// Kernel counters of the registry, in the order of
/// [`crate::report::KERNEL_COUNTERS`].
pub fn kernel_counters(report: &MetricsReport) -> [u64; 7] {
    let events = |kind| counter(report, "exadigit_kernel_events_total", Some(("kind", kind)));
    [
        events("job_arrival"),
        events("job_completion"),
        events("wet_bulb_breakpoint"),
        events("cooling_quantum"),
        events("record_boundary"),
        counter(report, "exadigit_kernel_gaps_batched_total", None),
        counter(report, "exadigit_kernel_samples_backfilled_total", None),
    ]
}

/// The server's live twin rebuilt in-process: the same config, feed and
/// ingest steps, so snapshots taken from it are the server's to the bit.
pub struct Reference {
    pub twin: DigitalTwin,
    feed: TelemetryFeed,
}

impl Reference {
    pub fn new(feed: TelemetryFeed) -> Result<Self, String> {
        let mut twin = DigitalTwin::new(twin_config())?;
        twin.set_wet_bulb(feed.wet_bulb().clone());
        Ok(Reference { twin, feed })
    }

    /// What the service does for `Advance { seconds }`.
    pub fn advance(&mut self, seconds: u64) -> Result<(), String> {
        let batch = self.feed.poll(self.twin.now() + seconds);
        if !batch.is_empty() {
            self.twin.submit(batch);
        }
        self.twin
            .run(seconds)
            .map_err(|e| format!("reference advance: {e}"))
    }
}

/// The store whose snapshot seeds match the service's (same seed, same
/// ids in the same order).
pub fn reference_store(seed: u64) -> SnapshotStore {
    SnapshotStore::new(MAX_SNAPSHOTS, seed)
}

/// The server-side wire stages of one request, replayed in-process:
/// client serialize, server parse, then `handle`, then server serialize
/// and client parse of the answer. Returns the in-process response.
pub fn replay_wire(
    tracer: &Tracer,
    req_id: u64,
    request: &Request,
    handle: impl FnOnce(&Request) -> Response,
) -> Result<(Response, usize, usize), String> {
    let mut request_bytes = Vec::new();
    tracer
        .span("protocol.client_serialize", req_id, || {
            write_message(&mut request_bytes, request)
        })
        .map_err(|e| format!("serialize request: {e}"))?;
    let parsed: Request = tracer
        .span("protocol.parse", req_id, || {
            read_message(&mut request_bytes.as_slice())
        })
        .map_err(|e| format!("parse request: {e}"))?
        .ok_or("request parsed to nothing")?
        .map_err(|e| format!("parse request: {e}"))?;
    let response = tracer.span("service.handle", req_id, || handle(&parsed));
    let mut response_bytes = Vec::new();
    tracer
        .span("protocol.serialize", req_id, || {
            write_message(&mut response_bytes, &response)
        })
        .map_err(|e| format!("serialize response: {e}"))?;
    let parsed: Response = tracer
        .span("protocol.client_parse", req_id, || {
            read_message(&mut response_bytes.as_slice())
        })
        .map_err(|e| format!("parse response: {e}"))?
        .ok_or("response parsed to nothing")?
        .map_err(|e| format!("parse response: {e}"))?;
    Ok((parsed, request_bytes.len(), response_bytes.len()))
}

/// The server's query stages for a `Query` or a `QueryBatch`, replayed
/// in-process in the order the server runs them: `SnapshotStore::get`
/// once per request, then `scenario_fingerprint` + `QueryCache::get` for
/// every spec, then `run_whatif` + `QueryCache::insert` for each miss.
pub fn replay_query(
    tracer: &Tracer,
    id: u64,
    request: &Request,
    store: &mut SnapshotStore,
    cache: &mut QueryCache,
) -> Response {
    let (snapshot_id, specs) = match request {
        Request::Query { snapshot_id, spec } => (*snapshot_id, std::slice::from_ref(spec)),
        Request::QueryBatch { snapshot_id, specs } => (*snapshot_id, specs.as_slice()),
        other => {
            return Response::Error {
                message: format!("{other:?} is not a query"),
            }
        }
    };
    let snapshot = match tracer.span("snapshot.resolve", id, || store.get(snapshot_id)) {
        Ok(Some(s)) => s,
        Ok(None) => {
            return Response::Error {
                message: format!("unknown snapshot {snapshot_id}"),
            }
        }
        Err(e) => {
            return Response::Error {
                message: format!("snapshot {snapshot_id} failed to load: {e}"),
            }
        }
    };
    let lookups: Vec<_> = specs
        .iter()
        .map(|spec| {
            tracer.span("cache.lookup", id, || {
                let fp = scenario_fingerprint(spec);
                (fp, cache.get(snapshot_id, fp))
            })
        })
        .collect();
    let cached_hits = lookups.iter().filter(|(_, hit)| hit.is_some()).count() as u64;
    let mut outcomes: Vec<BatchOutcome> = specs
        .iter()
        .zip(lookups)
        .map(|(spec, (fp, hit))| {
            if let Some(outcome) = hit {
                return BatchOutcome::Ok(outcome);
            }
            match tracer.span("whatif.run", id, || run_whatif(&snapshot, spec, Some(1))) {
                Ok(outcome) => {
                    tracer.span("cache.insert", id, || {
                        cache.insert(snapshot_id, fp, outcome.clone())
                    });
                    BatchOutcome::Ok(outcome)
                }
                Err(message) => BatchOutcome::Err { message },
            }
        })
        .collect();
    match request {
        Request::Query { .. } => match outcomes.pop().expect("one spec, one outcome") {
            BatchOutcome::Ok(outcome) => Response::Answer {
                cached: cached_hits == 1,
                outcome,
            },
            BatchOutcome::Err { message } => Response::Error { message },
        },
        _ => Response::Answers {
            cached_hits,
            outcomes,
        },
    }
}

/// Spans whose sum is a request's in-process work (`service.handle`
/// covers every handler stage nested under it).
pub const WIRE_STAGES: [&str; 5] = [
    "protocol.client_serialize",
    "protocol.parse",
    "service.handle",
    "protocol.serialize",
    "protocol.client_parse",
];

/// The per-layer values both serving workloads read the same way: wire
/// stages and handler stages from the spans, pool and cache counters
/// from the registry (differenced over the measured phase where the
/// registry allows; histogram quantiles are lifetime values).
pub fn layer_values(
    values: &mut crate::report::Values,
    spans: &[crate::trace::Span],
    before: &MetricsReport,
    after: &MetricsReport,
    table: &mut Vec<String>,
) {
    use crate::stats::{percentile, sorted};
    let rows = crate::trace::summarize(spans);
    let p50 = |name: &str| rows.get(name).map_or(0.0, |r| r.p50_us());
    let rtt = crate::trace::per_request_ns(spans, &["client.rtt"]);
    let stages = crate::trace::per_request_ns(spans, &WIRE_STAGES);
    let residual_us = sorted(
        rtt.iter()
            .map(|(id, rtt)| (*rtt as f64 - stages.get(id).copied().unwrap_or(0) as f64) / 1e3)
            .collect(),
    );
    let residual = percentile(&residual_us, 50.0).value();
    let rtt_p50 = p50("client.rtt");
    values.set("transport.rtt_p50_us", rtt_p50);
    values.set("transport.residual_us", residual);
    values.set(
        "transport.residual_pct",
        if rtt_p50 > 0.0 {
            100.0 * residual / rtt_p50
        } else {
            0.0
        },
    );
    for (metric, span) in [
        ("protocol.client_serialize_us", "protocol.client_serialize"),
        ("protocol.parse_us", "protocol.parse"),
        ("protocol.serialize_us", "protocol.serialize"),
        ("protocol.client_parse_us", "protocol.client_parse"),
        ("service.handle_us", "service.handle"),
        ("cache.lookup_us", "cache.lookup"),
        ("cache.insert_us", "cache.insert"),
        ("snapshot.resolve_us", "snapshot.resolve"),
        ("whatif.run_us", "whatif.run"),
        ("twin.fork_us", "twin.fork"),
    ] {
        values.set(metric, p50(span));
    }

    let delta = |name: &str, label: Option<(&str, &str)>| {
        (counter(after, name, label) - counter(before, name, label)) as f64
    };
    let (_, _, wait_p50, wait_p99) = histogram(after, "exadigit_queue_wait_seconds", None);
    values.set("pool.queue_wait_p50_us", wait_p50 * 1e6);
    values.set("pool.queue_wait_p99_us", wait_p99 * 1e6);
    values.set("pool.busy_total", delta("exadigit_busy_total", None));
    let requests = delta("exadigit_requests_total", None).max(1.0);
    let wakeups = delta("exadigit_reader_wakeups_total", None);
    let wasted = delta("exadigit_reader_wakeups_total", Some(("kind", "wasted")));
    values.set("pool.wakeups_per_req", wakeups / requests);
    values.set(
        "pool.wasted_wakeup_frac",
        if wakeups > 0.0 { wasted / wakeups } else { 0.0 },
    );
    let hits = delta("exadigit_cache_hits_total", None);
    let misses = delta("exadigit_cache_misses_total", None);
    values.set(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    values.set(
        "cache.evictions",
        delta("exadigit_cache_evictions_total", None),
    );
    let (b, a) = (kernel_counters(before), kernel_counters(after));
    for (i, name) in crate::report::KERNEL_COUNTERS.iter().enumerate() {
        values.set(name, (a[i] - b[i]) as f64);
    }
    table.extend(crate::trace::table(&rows));
}
