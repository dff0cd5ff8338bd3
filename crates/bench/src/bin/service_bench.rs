//! Load generator for the mini-ccd compile service: drives hundreds of
//! concurrent mixed cold/warm compile requests against an in-process
//! [`Service`] over socketpairs — the same framing, dispatch, admission
//! gate and shared pipeline a real daemon runs — and reports request
//! latency quantiles, throughput and the warm-hit ratio as
//! `BENCH_service.json` at the repository root.
//!
//! The schedule is deterministic: an untimed single-session pass first
//! compiles every workload once, priming the shared component memo. Then
//! request `i` of the timed phase is a warm workload compile (cycling
//! the primed corpus) unless `i % 3 == 0`, in which case it is a unique
//! synthetic program no cache has ever seen (a forced cold compile).
//! Requests are dealt round-robin across client sessions, so the
//! warm-hit ratio measures whether the memo actually serves replays
//! under concurrent mixed load.
//!
//! ```text
//! service_bench [--requests <n>] [--clients <k>] [--small]
//!               [--max-active <a>] [--out <path>]
//!   --requests <n>   total compile requests (default 240, min 100)
//!   --clients <k>    concurrent client sessions (default 16)
//!   --small          three smallest workloads only (CI-sized; the
//!                    request count floor still applies)
//!   --max-active <a> admission-gate width (default 4)
//!   --out <p>        output path (default BENCH_service.json)
//! ```
//!
//! Exits non-zero when a request fails, when throughput falls below
//! 5 req/s, when the p99 latency exceeds 2 s (generous, so the gate trips
//! on collapse rather than scheduler jitter) or when the warm-hit ratio
//! over warm-eligible requests falls below 0.25.

use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use ipra_driver::service::{roundtrip, CompileRequest, RequestSource, Service, ServiceConfig};
use ipra_obs::json::Json;

/// Minimum requests per second over the timed phase.
const MIN_THROUGHPUT_RPS: f64 = 5.0;
/// Maximum p99 request latency, in microseconds.
const MAX_P99_US: u128 = 2_000_000;
/// Minimum share of warm-eligible requests answered warm.
const MIN_WARM_HIT_RATIO: f64 = 0.25;

/// One finished request as observed by its client thread.
struct Sample {
    latency_us: u128,
    warm: bool,
    cold_intent: bool,
    status: String,
}

/// A synthetic program no cache has seen: the function name, arithmetic
/// constants and call argument all vary with `i`, so the body hash — and
/// therefore every cache key — is unique per request.
fn cold_source(i: usize) -> String {
    format!(
        "fn churn{i}(x: int) -> int {{ return x * {} + {}; }} \
         fn main() {{ print(churn{i}({})); }}",
        (i % 7) + 2,
        i + 1,
        (i % 11) + 1,
    )
}

fn quantile_us(sorted: &[u128], q: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() -> ExitCode {
    let mut requests = 240usize;
    let mut clients = 16usize;
    let mut small = false;
    let mut max_active = 4usize;
    let mut out_path = "BENCH_service.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let ok = match a.as_str() {
            "--requests" => match args.next().and_then(|v| v.trim().parse().ok()) {
                Some(v) => {
                    requests = v;
                    true
                }
                None => false,
            },
            "--clients" => match args.next().and_then(|v| v.trim().parse().ok()) {
                Some(v) => {
                    clients = v;
                    true
                }
                None => false,
            },
            "--small" => {
                small = true;
                true
            }
            "--max-active" => match args.next().and_then(|v| v.trim().parse().ok()) {
                Some(v) => {
                    max_active = v;
                    true
                }
                None => false,
            },
            "--out" => match args.next() {
                Some(p) => {
                    out_path = p;
                    true
                }
                None => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!(
                "usage: service_bench [--requests N] [--clients K] [--small] \
                 [--max-active A] [--out PATH]"
            );
            return ExitCode::FAILURE;
        }
    }
    // The acceptance bar for this benchmark is "≥100 concurrent mixed
    // requests"; anything smaller measures startup, not service.
    requests = requests.max(100);
    clients = clients.clamp(1, requests);

    let workloads: Vec<&str> = ipra_workloads::all()
        .iter()
        .take(if small { 3 } else { usize::MAX })
        .map(|w| w.name)
        .collect();

    // The bench measures latency under load, not shedding: queue deep
    // enough that no request is turned away as `busy`.
    let cfg = ServiceConfig {
        max_active: max_active.max(1),
        max_queue: requests,
        ..ServiceConfig::default()
    };
    let service = Service::new(cfg);

    println!(
        "service_bench — {requests} requests, {clients} clients, {} workloads, max-active {max_active}",
        workloads.len()
    );

    // Untimed priming pass: one serial session compiles each workload
    // once, so the timed phase measures memo service, not first-compile
    // racing.
    {
        let (mut client, server) = UnixStream::pair().expect("socketpair");
        std::thread::scope(|s| {
            let session = s.spawn(|| service.serve_session(&server, &server));
            for (i, w) in workloads.iter().enumerate() {
                let req =
                    CompileRequest::new(-(i as i64) - 1, RequestSource::Workload((*w).into()));
                let resp = roundtrip(&mut client, &req.to_json()).expect("prime roundtrip");
                assert_eq!(
                    resp.get("status").and_then(Json::as_str),
                    Some("ok"),
                    "priming {w} failed"
                );
            }
            drop(client);
            session.join().expect("prime session").expect("clean close");
        });
    }

    let samples = Mutex::new(Vec::with_capacity(requests));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let service = &service;
            let workloads = &workloads;
            let samples = &samples;
            s.spawn(move || {
                let (mut client, server) = UnixStream::pair().expect("socketpair");
                let session = s.spawn(move || service.serve_session(&server, &server));
                let mut local = Vec::new();
                for i in (c..requests).step_by(clients) {
                    let cold_intent = i % 3 == 0;
                    let source = if cold_intent {
                        RequestSource::Source(cold_source(i))
                    } else {
                        RequestSource::Workload(workloads[i % workloads.len()].into())
                    };
                    let req = CompileRequest::new(i as i64, source);
                    let t = Instant::now();
                    let resp = roundtrip(&mut client, &req.to_json()).expect("roundtrip");
                    local.push(Sample {
                        latency_us: t.elapsed().as_micros(),
                        warm: resp.get("warm") == Some(&Json::Bool(true)),
                        cold_intent,
                        status: resp
                            .get("status")
                            .and_then(Json::as_str)
                            .unwrap_or("missing")
                            .to_string(),
                    });
                }
                drop(client);
                session
                    .join()
                    .expect("session thread")
                    .expect("clean close");
                samples.lock().unwrap().extend(local);
            });
        }
    });
    let wall = t0.elapsed();

    let samples = samples.into_inner().unwrap();
    assert_eq!(samples.len(), requests, "every request completed");
    let failed = samples.iter().filter(|s| s.status != "ok").count();
    let warm_hits = samples.iter().filter(|s| s.warm).count();
    let warm_eligible = samples.iter().filter(|s| !s.cold_intent).count();
    let warm_hit_ratio = warm_hits as f64 / warm_eligible.max(1) as f64;
    let mut lat: Vec<u128> = samples.iter().map(|s| s.latency_us).collect();
    lat.sort_unstable();
    let p50 = quantile_us(&lat, 0.50);
    let p99 = quantile_us(&lat, 0.99);
    let max = *lat.last().unwrap_or(&0);
    let mean = lat.iter().sum::<u128>() as f64 / lat.len().max(1) as f64;
    let throughput = requests as f64 / wall.as_secs_f64().max(1e-9);

    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "", "p50(us)", "p99(us)", "max(us)", "mean(us)"
    );
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10.1}",
        "latency", p50, p99, max, mean
    );
    println!(
        "throughput {throughput:.1} req/s over {:.2}s wall; warm hits {warm_hits}/{warm_eligible} \
         ({:.0}% of warm-eligible); {failed} failed",
        wall.as_secs_f64(),
        warm_hit_ratio * 100.0,
    );

    let total = Json::obj(vec![
        ("requests", Json::Int(requests as i64)),
        ("clients", Json::Int(clients as i64)),
        ("failed", Json::Int(failed as i64)),
        ("wall_us", Json::Int(wall.as_micros() as i64)),
        ("p50_us", Json::Int(p50 as i64)),
        ("p99_us", Json::Int(p99 as i64)),
        ("max_us", Json::Int(max as i64)),
        ("mean_us", Json::Float(mean)),
        ("throughput_rps", Json::Float(throughput)),
        ("warm_hit_ratio", Json::Float(warm_hit_ratio)),
    ]);
    let doc = Json::obj(vec![
        ("bench", Json::Str("service_bench".into())),
        ("max_active", Json::Int(max_active as i64)),
        (
            "workloads",
            Json::Arr(workloads.iter().map(|w| Json::Str((*w).into())).collect()),
        ),
        ("total", total),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.render_pretty()) {
        eprintln!("{out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if failed > 0 {
        eprintln!("{failed} requests did not return ok");
        return ExitCode::FAILURE;
    }
    if throughput < MIN_THROUGHPUT_RPS {
        eprintln!("throughput {throughput:.1} req/s is below the {MIN_THROUGHPUT_RPS} req/s floor");
        return ExitCode::FAILURE;
    }
    if p99 > MAX_P99_US {
        eprintln!("p99 latency {p99}us exceeds the {MAX_P99_US}us ceiling");
        return ExitCode::FAILURE;
    }
    if warm_hit_ratio < MIN_WARM_HIT_RATIO {
        eprintln!("warm-hit ratio {warm_hit_ratio:.2} is below the {MIN_WARM_HIT_RATIO} target");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
