//! Protocol-hardening tests for the mini-ccd compile service.
//!
//! A daemon lives or dies by how it treats hostile or half-dead peers:
//! truncated frames, oversized length prefixes, payloads that are not
//! JSON, and clients that vanish mid-request must all end in a
//! structured error response or a clean session teardown — never a
//! panic, and never a wedged session.

use std::io::{Cursor, Write as _};

use ipra_driver::service::{CompileRequest, RequestSource, Service, ServiceConfig};
use ipra_obs::frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use ipra_obs::json::Json;

const DEMO: &str = "fn id(x: int) -> int { return x; } fn main() { print(id(7)); }";

fn responses_of(output: Vec<u8>) -> Vec<Json> {
    let mut c = Cursor::new(output);
    let mut out = Vec::new();
    loop {
        match read_frame(&mut c) {
            Ok(v) => out.push(v),
            Err(FrameError::Closed) => return out,
            Err(e) => panic!("response stream not cleanly framed: {e}"),
        }
    }
}

#[test]
fn truncated_header_tears_the_session_down_without_panicking() {
    let service = Service::with_defaults();
    // Two bytes of a four-byte header, then EOF.
    let mut output = Vec::new();
    let err = service
        .serve_session(Cursor::new(vec![0u8, 0u8]), &mut output)
        .unwrap_err();
    assert!(matches!(err, FrameError::Truncated), "{err}");
    assert!(output.is_empty(), "no response to an unfinished frame");
}

#[test]
fn disconnect_mid_payload_tears_the_session_down() {
    let service = Service::with_defaults();
    let req = CompileRequest::new(1, RequestSource::Source(DEMO.into()));
    let mut input = Vec::new();
    write_frame(&mut input, &req.to_json()).unwrap();
    // The peer dies with half the request on the wire.
    input.truncate(input.len() / 2);
    let mut output = Vec::new();
    let err = service
        .serve_session(Cursor::new(input), &mut output)
        .unwrap_err();
    assert!(matches!(err, FrameError::Truncated), "{err}");
    let m = service.metrics_snapshot();
    assert_eq!(
        m.counter_value("service.protocol_errors", &[("kind", "truncated")]),
        1,
        "a mid-frame death is recorded under its own kind"
    );
    assert_eq!(
        m.counter_value("service.protocol_errors", &[("kind", "parse")]),
        0
    );
}

#[test]
fn disconnect_after_a_complete_request_is_a_clean_close() {
    let service = Service::with_defaults();
    let req = CompileRequest::new(1, RequestSource::Source(DEMO.into()));
    let mut input = Vec::new();
    write_frame(&mut input, &req.to_json()).unwrap();
    let mut output = Vec::new();
    let served = service
        .serve_session(Cursor::new(input), &mut output)
        .unwrap();
    assert_eq!(served, 1);
    let resp = responses_of(output);
    assert_eq!(resp.len(), 1);
    assert_eq!(resp[0].get("status").and_then(Json::as_str), Some("ok"));
}

#[test]
fn oversized_frame_is_answered_then_the_session_closes() {
    let cfg = ServiceConfig {
        max_frame_len: 1024,
        ..ServiceConfig::default()
    };
    let service = Service::new(cfg);
    let mut input = Vec::new();
    // Declare 2 KiB against the 1 KiB cap; payload follows but must
    // never be buffered.
    input.extend_from_slice(&2048u32.to_be_bytes());
    input.extend_from_slice(&[b'x'; 2048]);
    let mut output = Vec::new();
    let served = service
        .serve_session(Cursor::new(input), &mut output)
        .unwrap();
    assert_eq!(served, 0);
    let resp = responses_of(output);
    assert_eq!(resp.len(), 1);
    assert_eq!(resp[0].get("status").and_then(Json::as_str), Some("error"));
    let msg = resp[0].get("error").and_then(Json::as_str).unwrap();
    assert!(
        msg.contains("2048"),
        "error names the offending size: {msg}"
    );
    let m = service.metrics_snapshot();
    assert_eq!(
        m.counter_value("service.protocol_errors", &[("kind", "too_large")]),
        1
    );
}

#[test]
fn default_frame_cap_is_enforced() {
    let service = Service::with_defaults();
    let mut input = Vec::new();
    input.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
    let mut output = Vec::new();
    assert_eq!(
        service
            .serve_session(Cursor::new(input), &mut output)
            .unwrap(),
        0
    );
    let resp = responses_of(output);
    assert_eq!(resp[0].get("status").and_then(Json::as_str), Some("error"));
}

#[test]
fn invalid_json_gets_a_structured_error_and_the_session_continues() {
    let service = Service::with_defaults();
    let mut input = Vec::new();
    let garbage = b"{\"cmd\": not json at all";
    input.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
    input.extend_from_slice(garbage);
    // A well-formed request after the bad one must still be served.
    write_frame(
        &mut input,
        &Json::obj(vec![
            ("cmd", Json::Str("ping".into())),
            ("id", Json::Int(2)),
        ]),
    )
    .unwrap();
    let mut output = Vec::new();
    let served = service
        .serve_session(Cursor::new(input), &mut output)
        .unwrap();
    assert_eq!(served, 1, "only the valid request counts as served");
    let resp = responses_of(output);
    assert_eq!(resp.len(), 2);
    assert_eq!(resp[0].get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(resp[1].get("pong"), Some(&Json::Bool(true)));
    let m = service.metrics_snapshot();
    assert_eq!(
        m.counter_value("service.protocol_errors", &[("kind", "parse")]),
        1
    );
}

#[test]
fn non_object_and_unknown_requests_are_structured_errors() {
    let service = Service::with_defaults();
    let mut input = Vec::new();
    write_frame(&mut input, &Json::Int(42)).unwrap();
    write_frame(&mut input, &Json::Arr(vec![])).unwrap();
    write_frame(
        &mut input,
        &Json::obj(vec![("cmd", Json::Str("rm -rf".into()))]),
    )
    .unwrap();
    let mut output = Vec::new();
    let served = service
        .serve_session(Cursor::new(input), &mut output)
        .unwrap();
    assert_eq!(served, 3);
    for r in responses_of(output) {
        assert_eq!(
            r.get("status").and_then(Json::as_str),
            Some("error"),
            "{r:?}"
        );
    }
}

#[test]
fn concurrent_sessions_share_one_pipeline_and_agree_byte_for_byte() {
    use std::os::unix::net::UnixStream;

    let service = Service::with_defaults();
    let sessions = 8;
    let asms = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for i in 0..sessions {
            let service = &service;
            handles.push(s.spawn(move || {
                let (mut client, server) = UnixStream::pair().unwrap();
                let srv = s.spawn(move || service.serve_session(&server, &server).unwrap());
                let mut req = CompileRequest::new(i, RequestSource::Source(DEMO.into()));
                req.run = true;
                let resp = ipra_driver::service::roundtrip(&mut client, &req.to_json()).unwrap();
                assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
                assert_eq!(resp.get("id").and_then(Json::as_i64), Some(i));
                assert_eq!(
                    resp.get("output").and_then(Json::as_arr),
                    Some(&[Json::Int(7)][..])
                );
                let asm = resp.get("asm").and_then(Json::as_str).unwrap().to_string();
                drop(client); // clean close; the server thread returns
                srv.join().unwrap();
                asm
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    for asm in &asms[1..] {
        assert_eq!(asm, &asms[0], "sessions diverged");
    }
    let m = service.metrics_snapshot();
    assert_eq!(m.counter_value("service.sessions", &[]), sessions as u64);
    assert_eq!(
        m.counter_value("service.requests", &[("cmd", "compile"), ("status", "ok")]),
        sessions as u64
    );
    // Sessions racing the very first compile may each miss the memo before
    // any of them publishes, so the batch's warm count is only recorded —
    // the deterministic sharing check is the follow-up probe below.
    let batch_warm = m.counter_value("service.warm_hits", &[]);
    assert!(
        m.histogram("service.request_micros", &[("cmd", "compile")])
            .is_some_and(|h| !h.is_empty()),
        "latency histogram records compiles"
    );

    // After the batch the memo is warm for certain: a follow-up session
    // must hit it and agree byte-for-byte with the concurrent answers.
    let (mut client, server) = UnixStream::pair().unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(|| service.serve_session(&server, &server).unwrap());
        let mut req = CompileRequest::new(99, RequestSource::Source(DEMO.into()));
        req.run = true;
        let resp = ipra_driver::service::roundtrip(&mut client, &req.to_json()).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            resp.get("asm").and_then(Json::as_str),
            Some(asms[0].as_str())
        );
        drop(client);
        srv.join().unwrap();
    });
    let m = service.metrics_snapshot();
    assert_eq!(
        m.counter_value("service.warm_hits", &[]),
        batch_warm + 1,
        "the post-batch session must replay from the shared memo"
    );
}

#[test]
fn half_written_frame_then_socket_close_is_contained() {
    use std::os::unix::net::UnixStream;

    let service = Service::with_defaults();
    let (mut client, server) = UnixStream::pair().unwrap();
    std::thread::scope(|s| {
        let h = s.spawn(|| service.serve_session(&server, &server));
        // One good request...
        let req = Json::obj(vec![("cmd", Json::Str("ping".into()))]);
        let resp = ipra_driver::service::roundtrip(&mut client, &req).unwrap();
        assert_eq!(resp.get("pong"), Some(&Json::Bool(true)));
        // ...then a header promising 100 bytes, 3 bytes, and a hangup.
        client.write_all(&100u32.to_be_bytes()).unwrap();
        client.write_all(b"abc").unwrap();
        drop(client);
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, FrameError::Truncated), "{err}");
    });
}

/// One-request helper: speaks one framed request to a fresh session and
/// returns the response.
fn one_request(req: &Json) -> Json {
    use std::os::unix::net::UnixStream;
    let service = Service::with_defaults();
    let (mut client, server) = UnixStream::pair().unwrap();
    std::thread::scope(|s| {
        let h = s.spawn(|| service.serve_session(&server, &server));
        let resp = ipra_driver::service::roundtrip(&mut client, req).unwrap();
        drop(client);
        h.join().unwrap().unwrap();
        resp
    })
}

#[test]
fn target_field_selects_the_register_file() {
    // Enough simultaneously-live values that the register file's shape
    // shows up in the allocation (DEMO fits any target identically).
    let pressure = "fn f(a: int, b: int, c: int, d: int) -> int {
        var e: int = a + b; var g: int = c + d; var h: int = a * c;
        var i: int = b * d; var j: int = e + g;
        return e + g + h + i + j;
    }
    fn main() { print(f(1, 2, 3, 4)); }";

    // The same source compiled for the default and the irregular target
    // must both succeed — with different assembly (the embedded8 file has
    // different registers to allocate).
    let mut req = CompileRequest::new(1, RequestSource::Source(pressure.into()));
    req.run = true;
    let default_resp = one_request(&req.to_json());
    assert_eq!(
        default_resp.get("status").and_then(Json::as_str),
        Some("ok")
    );
    let want_output = default_resp.get("output").and_then(Json::as_arr).unwrap();

    let mut req = CompileRequest::new(2, RequestSource::Source(pressure.into()));
    req.run = true;
    req.target = Some("embedded8".into());
    let resp = one_request(&req.to_json());
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        resp.get("output").and_then(Json::as_arr),
        Some(want_output),
        "irregular target must still print the right answer"
    );
    assert_ne!(
        resp.get("asm").and_then(Json::as_str),
        default_resp.get("asm").and_then(Json::as_str),
        "embedded8 assembly should differ from the mips-like default"
    );

    // Anonymous convention points work over the wire too.
    let mut req = CompileRequest::new(3, RequestSource::Source(pressure.into()));
    req.run = true;
    req.target = Some("conv:6,3,1".into());
    let resp = one_request(&req.to_json());
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(resp.get("output").and_then(Json::as_arr), Some(want_output));
}

#[test]
fn bad_target_requests_are_structured_errors_not_panics() {
    // Unknown name.
    let mut req = CompileRequest::new(1, RequestSource::Source(DEMO.into()));
    req.target = Some("nonesuch".into());
    let resp = one_request(&req.to_json());
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    let msg = resp.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("unknown target"), "{msg}");

    // Invalid convention triple (caller > pool).
    let mut req = CompileRequest::new(2, RequestSource::Source(DEMO.into()));
    req.target = Some("conv:4,9,1".into());
    let resp = one_request(&req.to_json());
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));

    // target and limit together.
    let mut req = CompileRequest::new(3, RequestSource::Source(DEMO.into()));
    req.target = Some("embedded8".into());
    req.limit = Some((7, 0));
    let resp = one_request(&req.to_json());
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    let msg = resp.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("mutually exclusive"), "{msg}");

    // A limit beyond the mips family must error, not panic the session.
    let mut req = CompileRequest::new(4, RequestSource::Source(DEMO.into()));
    req.limit = Some((12, 0));
    let resp = one_request(&req.to_json());
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    let msg = resp.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("at most"), "{msg}");
}

/// A compile request with `options` and extra top-level fields.
fn compile_request(options: Vec<(&str, Json)>, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("cmd", Json::Str("compile".into())),
        ("source", Json::Str(DEMO.into())),
        ("options", Json::obj(options)),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

#[test]
fn mistyped_or_misspelled_fields_are_structured_errors_naming_the_field() {
    // Each of these used to compile with a default in place of what the
    // client asked for.
    let bad = [
        ("opt", compile_request(vec![("opt", Json::Int(2))], vec![])),
        (
            "shrink_wrap",
            compile_request(vec![("shrink_wrap", Json::Int(0))], vec![]),
        ),
        (
            "inline",
            compile_request(vec![("inline", Json::Str("yes".into()))], vec![]),
        ),
        (
            "limt",
            compile_request(
                vec![("limt", Json::Arr(vec![Json::Int(7), Json::Int(0)]))],
                vec![],
            ),
        ),
        (
            "run",
            compile_request(vec![], vec![("run", Json::Str("yes".into()))]),
        ),
    ];
    let service = Service::with_defaults();
    let mut input = Vec::new();
    for (_, req) in &bad {
        write_frame(&mut input, req).unwrap();
    }
    // The session survives every rejection. `"shrink_wrap": true` keeps
    // the level's setting, and any `id` is echoed as sent.
    let id = Json::Str("req-7".into());
    let good = compile_request(
        vec![("shrink_wrap", Json::Bool(true))],
        vec![("id", id.clone())],
    );
    write_frame(&mut input, &good).unwrap();
    let mut output = Vec::new();
    service
        .serve_session(Cursor::new(input), &mut output)
        .unwrap();
    let resp = responses_of(output);
    assert_eq!(resp.len(), bad.len() + 1);
    for ((field, _), r) in bad.iter().zip(&resp) {
        assert_eq!(
            r.get("status").and_then(Json::as_str),
            Some("error"),
            "`{field}`: {r:?}"
        );
        let msg = r.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(msg.contains(field), "error names `{field}`: {msg}");
    }
    assert_eq!(
        resp[bad.len()].get("status").and_then(Json::as_str),
        Some("ok")
    );
    assert_eq!(resp[bad.len()].get("id"), Some(&id));
}

/// The daemon reads no file a client names: a `path` request gets a
/// structured error that carries nothing of the file, and the session
/// then answers a `ping`.
#[test]
fn a_path_request_is_an_error_and_reads_nothing() {
    const SENTINEL: &str = "sentinel_e1f7";
    let dir = std::env::temp_dir().join(format!("ipra-path-request-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("prog.mini");
    std::fs::write(&file, format!("{SENTINEL} fn main() {{ print(1); }}")).unwrap();

    let service = Service::with_defaults();
    let mut input = Vec::new();
    let path = RequestSource::Path(file.to_string_lossy().into_owned());
    write_frame(&mut input, &CompileRequest::new(1, path).to_json()).unwrap();
    write_frame(
        &mut input,
        &Json::obj(vec![
            ("cmd", Json::Str("ping".into())),
            ("id", Json::Int(2)),
        ]),
    )
    .unwrap();
    let mut output = Vec::new();
    service
        .serve_session(Cursor::new(input), &mut output)
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let resp = responses_of(output);
    assert_eq!(resp.len(), 2);
    assert_eq!(resp[0].get("status").and_then(Json::as_str), Some("error"));
    let rendered = resp[0].render();
    assert!(
        !rendered.contains(SENTINEL),
        "the file was read: {rendered}"
    );
    assert_eq!(resp[1].get("pong"), Some(&Json::Bool(true)));
}

/// A response's `analysis` object is derived from its `cache` object: no
/// hits, and one miss per function the compile allocated. A cold, a warm
/// and an edited compile through one session each carry it.
#[test]
fn analysis_object_reports_the_cache_misses() {
    let service = Service::with_defaults();
    let edited = DEMO.replace("id(7)", "id(8)");
    let mut input = Vec::new();
    for (i, text) in [DEMO, DEMO, edited.as_str()].into_iter().enumerate() {
        let req = CompileRequest::new(i as i64, RequestSource::Source(text.into()));
        write_frame(&mut input, &req.to_json()).unwrap();
    }
    let mut output = Vec::new();
    service
        .serve_session(Cursor::new(input), &mut output)
        .unwrap();
    let resp = responses_of(output);
    let misses: Vec<i64> = resp
        .iter()
        .map(|r| {
            assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"), "{r:?}");
            let misses = r.get("cache").and_then(|c| c.get("misses")).unwrap();
            let want = Json::obj(vec![("hits", Json::Int(0)), ("misses", misses.clone())]);
            assert_eq!(r.get("analysis"), Some(&want), "{r:?}");
            misses.as_i64().unwrap()
        })
        .collect();
    assert_eq!(misses, [2, 0, 1], "cold, warm and edited compiles");
}
