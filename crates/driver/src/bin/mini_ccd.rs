//! `mini-ccd` — the long-lived compile daemon.
//!
//! ```text
//! mini-ccd --socket <path> [OPTIONS]   serve a Unix socket (one thread
//!                                      per connection, shared pipeline)
//! mini-ccd --stdio [OPTIONS]           serve exactly one session on
//!                                      stdin/stdout, then exit
//!   --max-active <n>   concurrent compiles (default 4)
//!   --max-queue <n>    queued compiles before `busy` (default 64)
//!   --jobs-cap <n>     per-compile wave-scheduler jobs cap (default 4)
//! ```
//!
//! Clients are `mini-cc --remote <socket>` or anything speaking the
//! length-prefixed JSON protocol of `ipra_obs::frame`. A `shutdown`
//! command stops the accept loop after in-flight sessions finish; the
//! socket file is removed on the way out.

use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::thread::JoinHandle;

use ipra_driver::service::{Service, ServiceConfig};

struct DaemonArgs {
    socket: Option<String>,
    stdio: bool,
    config: ServiceConfig,
}

fn usage() -> &'static str {
    "usage: mini-ccd (--socket PATH | --stdio) \
     [--max-active N] [--max-queue N] [--jobs-cap N]"
}

fn parse_args_from(args: impl Iterator<Item = String>) -> Result<DaemonArgs, String> {
    let mut socket = None;
    let mut stdio = false;
    let mut config = ServiceConfig::default();
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => socket = Some(args.next().ok_or("--socket needs a path")?),
            "--stdio" => stdio = true,
            "--max-active" => {
                let v = args.next().ok_or("--max-active needs a count")?;
                config.max_active = v.trim().parse().map_err(|_| "bad --max-active count")?;
            }
            "--max-queue" => {
                let v = args.next().ok_or("--max-queue needs a count")?;
                config.max_queue = v.trim().parse().map_err(|_| "bad --max-queue count")?;
            }
            "--jobs-cap" => {
                let v = args.next().ok_or("--jobs-cap needs a count")?;
                let cap: usize = v.trim().parse().map_err(|_| "bad --jobs-cap count")?;
                config.jobs_cap = cap.max(1);
            }
            "-h" | "--help" => return Err(usage().to_string()),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    if stdio == socket.is_some() {
        return Err(usage().to_string());
    }
    Ok(DaemonArgs {
        socket,
        stdio,
        config,
    })
}

/// Joins the session threads that have finished, so the daemon holds a
/// thread, and its stack, only for each live session.
fn reap(workers: &mut Vec<JoinHandle<()>>) {
    let (done, live) = std::mem::take(workers)
        .into_iter()
        .partition(|w: &JoinHandle<()>| w.is_finished());
    *workers = live;
    for w in done {
        let _ = w.join();
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args_from(std::env::args().skip(1))?;
    let service = Arc::new(Service::new(args.config));

    if args.stdio {
        let served = service
            .serve_session(std::io::stdin().lock(), std::io::stdout().lock())
            .map_err(|e| format!("stdio session failed: {e}"))?;
        eprintln!("[mini-ccd] stdio session served {served} request(s)");
        return Ok(());
    }

    let path = args.socket.expect("checked in parse");
    // A stale socket file from a crashed daemon would fail the bind.
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("[mini-ccd] listening on {path}");

    let mut workers = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) => {
                eprintln!("[mini-ccd] accept failed: {e}");
                continue;
            }
        };
        // A session that accepted a `shutdown` self-connects to unblock
        // this accept; the flag check drops that wake-up connection.
        if service.shutdown_requested() {
            break;
        }
        reap(&mut workers);
        let svc = Arc::clone(&service);
        let sock = path.clone();
        workers.push(std::thread::spawn(move || {
            match svc.serve_session(&stream, &stream) {
                Ok(_) => {}
                Err(e) => eprintln!("[mini-ccd] session torn down: {e}"),
            }
            if svc.shutdown_requested() {
                let _ = UnixStream::connect(&sock);
            }
        }));
    }
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_file(&path);
    eprintln!("[mini-ccd] shut down cleanly");
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<DaemonArgs, String> {
        parse_args_from(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn socket_and_stdio_are_mutually_exclusive_and_one_is_required() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--socket", "/tmp/s", "--stdio"]).is_err());
        assert!(parse(&["--stdio"]).unwrap().stdio);
        assert_eq!(
            parse(&["--socket", "/tmp/s"]).unwrap().socket.as_deref(),
            Some("/tmp/s")
        );
    }

    #[test]
    fn knobs_parse_with_defaults() {
        let a = parse(&["--stdio"]).unwrap();
        assert_eq!(a.config.max_active, 4);
        assert_eq!(a.config.max_queue, 64);
        assert_eq!(a.config.jobs_cap, 4);
        let b = parse(&[
            "--socket",
            "/tmp/s",
            "--max-active",
            "2",
            "--max-queue",
            "0",
            "--jobs-cap",
            "1",
        ])
        .unwrap();
        assert_eq!(b.config.max_active, 2);
        assert_eq!(b.config.max_queue, 0);
        assert_eq!(b.config.jobs_cap, 1);
    }
}
