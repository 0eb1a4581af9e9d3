//! **ooc-serve** — the multi-tenant likelihood server, plus the smoke
//! driver CI uses to exercise it end to end.
//!
//! ```sh
//! # Long-running server:
//! ooc-serve listen --addr 127.0.0.1:7811 --arena-bytes 67108864 \
//!     --workers 2 --metrics serve-metrics.jsonl
//!
//! # Self-contained end-to-end check (exits nonzero on any violation):
//! ooc-serve smoke --metrics serve-metrics.jsonl
//! ```
//!
//! The smoke drives four concurrent jobs over real TCP against a
//! deliberately small arena:
//!
//! * two likelihood tenants whose lnLs must be **bit-identical** to solo
//!   (arena-free) runs of the same request — contention changes stalls,
//!   never values — sized so their overlap forces fair cross-tenant
//!   evictions;
//! * one tenant whose 3-slot pinned floor exceeds the whole arena —
//!   admission control must *reject* it (never OOM);
//! * one file-backed tenant cancelled mid-traversal — the job must land
//!   `cancelled` and the arena must keep serving afterwards.

use ooc_core::json::Value;
use ooc_serve::net::{self, Request};
use ooc_serve::{
    solo_likelihood, DatasetRequest, JobKind, JobRequest, PartitionRequest, ServeConfig, Service,
};
use phylo_ooc::args::{self, Args, Command, Flag, METRICS};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCRATCH: Flag = Flag::text(
    "scratch",
    "",
    "directory for file-backed vector stores [the temp dir]",
);

const COMMANDS: [&Command; 2] = [
    &Command {
        name: "listen",
        about: "serve jobs over newline-delimited JSON on TCP",
        flags: &[
            Flag::text("addr", "127.0.0.1:7811", "HOST:PORT to listen on"),
            Flag::int("arena-bytes", 64 << 20, "slot RAM shared by all tenants"),
            Flag::int("workers", 2, "worker threads (= max concurrent engines)"),
            Flag::int("queue-depth", 64, "job-queue depth; more is refused"),
            METRICS,
            SCRATCH,
        ],
        positional: None,
        run: listen,
    },
    &Command {
        name: "smoke",
        about: "self-contained end-to-end check over real TCP",
        flags: &[
            // Tight on purpose: below the two tenants' joint demand (so
            // their overlap forces fair evictions), above their floors.
            Flag::int("arena-bytes", 3 << 20, "slot RAM shared by all tenants"),
            METRICS,
            SCRATCH,
        ],
        positional: None,
        run: smoke,
    },
];

/// The flags both commands share, over the library's defaults.
fn serve_config(args: &Args) -> ServeConfig {
    let metrics = args.string("metrics");
    let scratch = args.string("scratch");
    let mut cfg = ServeConfig {
        arena_bytes: args.u64("arena-bytes"),
        metrics_path: (!metrics.is_empty()).then(|| PathBuf::from(metrics)),
        ..ServeConfig::default()
    };
    if !scratch.is_empty() {
        cfg.scratch_dir = PathBuf::from(scratch);
    }
    cfg
}

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let about = "multi-tenant likelihood server";
    std::process::exit(args::run("ooc-serve", about, &COMMANDS, &tokens));
}

fn listen(args: &Args) -> Result<(), String> {
    let addr = args.string("addr");
    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let cfg = ServeConfig {
        workers: args.usize("workers"),
        queue_depth: args.usize("queue-depth"),
        ..serve_config(args)
    };
    let service = Arc::new(Service::start(cfg).map_err(|e| e.to_string())?);
    eprintln!(
        "ooc-serve: listening on {} (arena {} bytes, {} workers)",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default(),
        service.arena_bytes(),
        service.config().workers,
    );
    net::serve(service, listener).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Smoke driver.
// ---------------------------------------------------------------------------

/// One request/response exchange on a fresh connection.
fn rpc(addr: &str, req: &Request) -> Result<Value, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut line = req.to_json();
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).map_err(|e| e.to_string())?;
    Value::parse(resp.trim())
}

fn submit(addr: &str, req: JobRequest) -> Result<u64, String> {
    let v = rpc(addr, &Request::Submit(req))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("submit refused: {v:?}"));
    }
    v.get("job")
        .and_then(Value::as_u64)
        .ok_or("no job id".into())
}

fn wait(addr: &str, job: u64) -> Result<Value, String> {
    let v = rpc(addr, &Request::Wait { job })?;
    v.get("status")
        .cloned()
        .ok_or(format!("no status for job {job}"))
}

fn poll_until_running(addr: &str, job: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let v = rpc(addr, &Request::Status { job })?;
        let status = v
            .get("status")
            .and_then(|s| s.get("status"))
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        match status.as_str() {
            "running" => return Ok(()),
            "queued" => {}
            other => return Err(format!("job {job} reached '{other}' before running")),
        }
        if Instant::now() > deadline {
            return Err(format!("job {job} never started"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn status_kind(status: &Value) -> &str {
    status.get("status").and_then(Value::as_str).unwrap_or("?")
}

const OOC_PROFILE: &str = "residency = \"ooc-mem\"\nfraction = 0.5\nstrategy = \"lru\"\n";
const FILE_PROFILE: &str = "residency = \"file\"\nfraction = 0.25\nstrategy = \"lru\"\n";

fn smoke(args: &Args) -> Result<(), String> {
    // Two workers: the overlap below needs both.
    let cfg = ServeConfig {
        workers: 2,
        ..serve_config(args)
    };
    let scratch = cfg.scratch_dir.clone();

    // Ground truth, computed solo before the server runs anything.
    let alice_ds = DatasetRequest {
        n_taxa: 16,
        n_sites: 4000,
        seed: 11,
        partitions: None,
    };
    let bob_ds = DatasetRequest {
        n_taxa: 12,
        n_sites: 0,
        seed: 23,
        partitions: Some(vec![
            PartitionRequest {
                kind: "dna".into(),
                n_sites: 2000,
            },
            PartitionRequest {
                kind: "protein".into(),
                n_sites: 800,
            },
        ]),
    };
    let (alice_solo, _) =
        solo_likelihood(&alice_ds, OOC_PROFILE, 1, &scratch.join("smoke-solo-a.vec"))?;
    let (bob_solo, bob_solo_parts) =
        solo_likelihood(&bob_ds, OOC_PROFILE, 1, &scratch.join("smoke-solo-b.vec"))?;

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let service = Arc::new(Service::start(cfg)?);
    {
        let service = service.clone();
        std::thread::spawn(move || {
            let _ = net::serve(service, listener);
        });
    }
    eprintln!(
        "smoke: server on {addr}, arena {} bytes",
        service.arena_bytes()
    );

    // Alice first; once she is mid-run, Bob's admission shrinks her
    // allowance — the overlap is what forces fair evictions.
    let alice = submit(
        &addr,
        JobRequest {
            tenant: "alice".into(),
            dataset: alice_ds,
            profile: OOC_PROFILE.into(),
            job: JobKind::Likelihood { traversals: 30 },
        },
    )?;
    poll_until_running(&addr, alice)?;
    let bob = submit(
        &addr,
        JobRequest {
            tenant: "bob".into(),
            dataset: bob_ds,
            profile: OOC_PROFILE.into(),
            job: JobKind::Likelihood { traversals: 30 },
        },
    )?;

    // Mallory's 3-slot pinned floor alone exceeds the arena: admission
    // control must reject the job outright.
    let mallory = submit(
        &addr,
        JobRequest {
            tenant: "mallory".into(),
            dataset: DatasetRequest {
                n_taxa: 64,
                n_sites: 20000,
                seed: 5,
                partitions: None,
            },
            profile: OOC_PROFILE.into(),
            job: JobKind::Likelihood { traversals: 1 },
        },
    )?;

    // Carol: file-backed and effectively unbounded, so the cancel below is
    // guaranteed to land mid-run rather than racing a fast completion.
    let carol = submit(
        &addr,
        JobRequest {
            tenant: "carol".into(),
            dataset: DatasetRequest {
                n_taxa: 16,
                n_sites: 1500,
                seed: 31,
                partitions: None,
            },
            profile: FILE_PROFILE.into(),
            job: JobKind::Likelihood {
                traversals: 1_000_000,
            },
        },
    )?;

    let alice_status = wait(&addr, alice)?;
    let bob_status = wait(&addr, bob)?;
    let mallory_status = wait(&addr, mallory)?;

    poll_until_running(&addr, carol)?;
    std::thread::sleep(Duration::from_millis(30));
    rpc(&addr, &Request::Cancel { job: carol })?;
    let carol_status = wait(&addr, carol)?;

    // --- Verdicts -----------------------------------------------------
    let mut failures = Vec::new();

    for (name, status, solo) in [
        ("alice", &alice_status, alice_solo),
        ("bob", &bob_status, bob_solo),
    ] {
        if status_kind(status) != "done" {
            failures.push(format!("{name}: expected done, got {status:?}"));
            continue;
        }
        match status.get("lnl").and_then(|v| match v {
            Value::Float(f) => Some(*f),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }) {
            Some(lnl) if lnl == solo => {
                eprintln!("smoke: {name} lnl {lnl} bit-identical to solo run")
            }
            Some(lnl) => failures.push(format!("{name}: served lnl {lnl} != solo {solo}")),
            None => failures.push(format!("{name}: no lnl in {status:?}")),
        }
    }
    let bob_parts: Vec<f64> = bob_status
        .get("partition_lnls")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|v| match v {
                    Value::Float(f) => Some(*f),
                    Value::Int(n) => Some(*n as f64),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    if bob_parts != bob_solo_parts {
        failures.push(format!(
            "bob: partition lnls {bob_parts:?} != solo {bob_solo_parts:?}"
        ));
    }

    if status_kind(&mallory_status) != "rejected" {
        failures.push(format!(
            "mallory: expected rejected, got {mallory_status:?}"
        ));
    } else {
        eprintln!(
            "smoke: mallory rejected by admission control: {}",
            mallory_status
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("?")
        );
    }

    if status_kind(&carol_status) != "cancelled" {
        failures.push(format!("carol: expected cancelled, got {carol_status:?}"));
    } else {
        eprintln!("smoke: carol cancelled mid-traversal");
    }

    let counters = rpc(&addr, &Request::Counters)?;
    let counter = |k: &str| {
        counters
            .get("counters")
            .and_then(|c| c.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (adm, rej, rel, fair) = (
        counter("admissions"),
        counter("rejections"),
        counter("releases"),
        counter("fair_evictions"),
    );
    eprintln!(
        "smoke: counters admissions={adm} rejections={rej} releases={rel} fair_evictions={fair}"
    );
    if adm < 3 {
        failures.push(format!("expected >= 3 admissions, saw {adm}"));
    }
    if rej < 1 {
        failures.push(format!("expected >= 1 rejection, saw {rej}"));
    }
    if rel < adm {
        failures.push(format!("{adm} admissions but only {rel} releases"));
    }
    if fair < 1 {
        failures.push(format!("expected fair evictions under overlap, saw {fair}"));
    }

    // The arena must be fully drained and reusable after the mix.
    if service.n_tenants() != 0 {
        failures.push(format!(
            "{} tenants still hold grants after all jobs finished",
            service.n_tenants()
        ));
    }

    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    eprintln!("ooc-serve smoke: OK");
    Ok(())
}
