//! Service-level behavior: queue bounds, cancellation, protocol handling
//! over real TCP, and job outcomes.

use ooc_serve::net::{self, Request};
use ooc_serve::{
    solo_likelihood, DatasetRequest, JobKind, JobRequest, JobStatus, ServeConfig, Service,
    SubmitError,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROFILE: &str = "residency = \"ooc-mem\"\nfraction = 0.4\nstrategy = \"lru\"\n";

fn small_dataset(seed: u64) -> DatasetRequest {
    DatasetRequest {
        n_taxa: 12,
        n_sites: 300,
        seed,
        partitions: None,
    }
}

fn likelihood_req(tenant: &str, seed: u64) -> JobRequest {
    JobRequest {
        tenant: tenant.into(),
        dataset: small_dataset(seed),
        profile: PROFILE.into(),
        job: JobKind::Likelihood { traversals: 1 },
    }
}

fn cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        arena_bytes: 32 << 20,
        workers,
        scratch_dir: std::env::temp_dir(),
        ..ServeConfig::default()
    }
}

#[test]
fn served_likelihood_matches_solo_run() {
    let service = Service::start(cfg(1)).unwrap();
    let scratch = std::env::temp_dir().join("serve-test-solo.vec");
    let (solo, solo_parts) = solo_likelihood(&small_dataset(42), PROFILE, 1, &scratch).unwrap();

    let id = service.submit(likelihood_req("t", 42)).unwrap();
    match service.wait(id).unwrap() {
        JobStatus::Done {
            lnl,
            partition_lnls,
            batch,
        } => {
            assert_eq!(lnl, solo, "served lnL must be bit-identical to solo");
            assert_eq!(partition_lnls, solo_parts);
            assert!(batch.is_none());
        }
        other => panic!("expected done, got {other:?}"),
    }
    assert_eq!(service.counters().admissions, 1);
    assert_eq!(service.counters().releases, 1);
    assert_eq!(service.n_tenants(), 0, "grant released at job end");
}

#[test]
fn evaluate_batch_scores_each_root_against_the_cache() {
    let service = Service::start(cfg(1)).unwrap();
    let req = JobRequest {
        job: JobKind::EvaluateBatch {
            roots: vec![0, 2, 4],
        },
        ..likelihood_req("t", 9)
    };
    let id = service.submit(req).unwrap();
    match service.wait(id).unwrap() {
        JobStatus::Done { lnl, batch, .. } => {
            let batch = batch.expect("evaluate-batch returns per-root lnls");
            assert_eq!(batch.len(), 3);
            // Re-rooting a reversible model never changes the likelihood.
            for b in batch {
                assert!(
                    (b - lnl).abs() < 1e-6,
                    "root-invariance violated: {b} vs {lnl}"
                );
            }
        }
        other => panic!("expected done, got {other:?}"),
    }
}

#[test]
fn out_of_range_batch_root_fails_the_job() {
    let service = Service::start(cfg(1)).unwrap();
    let req = JobRequest {
        job: JobKind::EvaluateBatch { roots: vec![9999] },
        ..likelihood_req("t", 9)
    };
    let id = service.submit(req).unwrap();
    match service.wait(id).unwrap() {
        JobStatus::Failed { error } => assert!(error.contains("out of range"), "{error}"),
        other => panic!("expected failed, got {other:?}"),
    }
}

#[test]
fn bad_profile_and_bad_dataset_fail_cleanly() {
    let service = Service::start(cfg(1)).unwrap();
    let bad_profile = JobRequest {
        profile: "residency = \"warp-drive\"\n".into(),
        ..likelihood_req("t", 1)
    };
    let id = service.submit(bad_profile).unwrap();
    assert!(matches!(
        service.wait(id).unwrap(),
        JobStatus::Failed { .. }
    ));

    let bad_dataset = JobRequest {
        dataset: DatasetRequest {
            n_taxa: 8,
            n_sites: 0,
            seed: 1,
            partitions: None,
        },
        ..likelihood_req("t", 1)
    };
    let id = service.submit(bad_dataset).unwrap();
    assert!(matches!(
        service.wait(id).unwrap(),
        JobStatus::Failed { .. }
    ));
    assert_eq!(service.n_tenants(), 0);
}

#[test]
fn full_queue_refuses_instead_of_buffering() {
    let service = Service::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..cfg(1)
    })
    .unwrap();
    // An effectively unbounded job occupies the single worker (it is
    // cancelled at the end, aborting at its next slot transfer)...
    let slow = JobRequest {
        job: JobKind::Likelihood {
            traversals: 1_000_000,
        },
        ..likelihood_req("slow", 3)
    };
    let running = service.submit(slow).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.status(running) == Some(JobStatus::Queued) {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    // ...one job fits in the queue, the next is refused.
    let queued = service.submit(likelihood_req("q", 4)).unwrap();
    let refused = service.submit(likelihood_req("r", 5));
    assert_eq!(refused, Err(SubmitError::QueueFull));
    // Refused submissions leave no tracked job behind.
    assert!(service.status(running).is_some());
    assert!(service.status(queued).is_some());
    service.cancel(running);
    service.cancel(queued);
    assert!(service.wait(running).unwrap().is_terminal());
    assert!(service.wait(queued).unwrap().is_terminal());
}

#[test]
fn cancelling_a_queued_job_prevents_it_from_running() {
    let service = Service::start(ServeConfig {
        workers: 1,
        ..cfg(1)
    })
    .unwrap();
    // Effectively unbounded, so the victim stays queued until cancelled.
    let slow = JobRequest {
        job: JobKind::Likelihood {
            traversals: 1_000_000,
        },
        ..likelihood_req("slow", 3)
    };
    let running = service.submit(slow).unwrap();
    let victim = service.submit(likelihood_req("victim", 4)).unwrap();
    assert!(service.cancel(victim), "known job id");
    assert!(!service.cancel(9999), "unknown job id");
    assert_eq!(service.wait(victim).unwrap(), JobStatus::Cancelled);
    service.cancel(running);
    assert!(service.wait(running).unwrap().is_terminal());
}

#[test]
fn wire_protocol_round_trips_over_tcp() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(Service::start(cfg(2)).unwrap());
    {
        let service = service.clone();
        std::thread::spawn(move || {
            let _ = net::serve(service, listener);
        });
    }

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut rpc = |req: &Request| -> String {
        let mut line = req.to_json();
        line.push('\n');
        writer.write_all(line.as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };

    let resp = rpc(&Request::Submit(likelihood_req("tcp", 8)));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"job\":1"), "{resp}");

    let resp = rpc(&Request::Wait { job: 1 });
    assert!(resp.contains("\"status\":\"done\""), "{resp}");
    assert!(resp.contains("\"lnl\":-"), "{resp}");

    let resp = rpc(&Request::Counters);
    assert!(resp.contains("\"admissions\":1"), "{resp}");

    let resp = rpc(&Request::Status { job: 77 });
    assert!(resp.contains("\"ok\":false"), "{resp}");

    // Malformed input is a protocol error, not a dropped connection.
    writer.write_all(b"not json\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("malformed request"), "{resp}");
}

/// Regression: a hostile line must cost the service one connection, not
/// the process. An over-long line used to be buffered without bound, and
/// deep nesting used to overflow the connection thread's stack — taking
/// every tenant down with it.
#[test]
fn hostile_lines_get_an_error_and_the_service_keeps_serving() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(Service::start(cfg(1)).unwrap());
    {
        let service = service.clone();
        std::thread::spawn(move || {
            let _ = net::serve(service, listener);
        });
    }
    let respond = |payload: Vec<u8>| -> String {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // The server may stop reading before the client stops writing.
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(&payload);
            let _ = writer.write_all(b"\n");
        });
        let mut resp = String::new();
        BufReader::new(stream).read_line(&mut resp).unwrap();
        sender.join().unwrap();
        resp
    };

    // 2 MiB without a newline: one error response, then the connection
    // closes (the next read sees end of stream).
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
        let _ = writer.write_all(b"\n{\"op\":\"counters\"}\n");
    });
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(
        resp.contains("malformed request: line longer than"),
        "{resp}"
    );
    sender.join().unwrap();
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");

    // 20 KB of '[' (and of '{"a":'): a parse error, not a stack overflow.
    for opener in ["[", "{\"a\":"] {
        let resp = respond(opener.repeat(20_000).into_bytes());
        assert!(resp.contains("malformed request"), "{resp}");
        assert!(resp.contains("nesting deeper"), "{resp}");
    }

    // The next connection is served, bit-identically to a solo run.
    let scratch = std::env::temp_dir().join("serve-test-hostile.vec");
    let (solo, _) = solo_likelihood(&small_dataset(42), PROFILE, 1, &scratch).unwrap();
    let submit = Request::Submit(likelihood_req("after", 42)).to_json();
    assert!(respond(submit.into_bytes()).contains("\"ok\":true"));
    let resp = respond(Request::Wait { job: 1 }.to_json().into_bytes());
    assert!(resp.contains("\"status\":\"done\""), "{resp}");
    assert!(
        resp.contains(&format!("\"lnl\":{solo:?}")),
        "{resp} vs {solo:?}"
    );
}

/// A partitioned file-backed job writes one vector file per partition
/// (`<scratch>.p<i>`); whatever the job's outcome, none of them outlives
/// it. (The service used to remove `<scratch>.vec` only — a name no
/// partitioned job ever wrote — and leaked a full-size file per partition
/// per job.)
#[test]
fn no_job_outcome_leaves_vector_files_behind() {
    let dir = tempfile::tempdir().unwrap();
    let service = Service::start(ServeConfig {
        arena_bytes: 32 << 20,
        workers: 1,
        scratch_dir: dir.path().to_owned(),
        ..ServeConfig::default()
    })
    .unwrap();
    let leftovers = || -> Vec<String> {
        std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    };
    let part = |kind: &str, n_sites| ooc_serve::PartitionRequest {
        kind: kind.into(),
        n_sites,
    };
    let job = |job: JobKind| JobRequest {
        tenant: "leaky".into(),
        dataset: DatasetRequest {
            n_taxa: 14,
            n_sites: 0,
            seed: 31,
            partitions: Some(vec![
                part("dna", 400),
                part("protein", 80),
                part("codon", 30),
            ]),
        },
        profile: "residency = \"file-limit\"\nlimit_bytes = 600000\n".into(),
        job,
    };

    let done = service
        .submit(job(JobKind::Likelihood { traversals: 2 }))
        .unwrap();
    match service.wait(done).unwrap() {
        JobStatus::Done { partition_lnls, .. } => assert_eq!(partition_lnls.len(), 3),
        other => panic!("expected done, got {other:?}"),
    }
    assert_eq!(leftovers(), Vec::<String>::new(), "after a finished job");

    let failed = service
        .submit(job(JobKind::EvaluateBatch { roots: vec![9999] }))
        .unwrap();
    assert!(matches!(
        service.wait(failed).unwrap(),
        JobStatus::Failed { .. }
    ));
    assert_eq!(leftovers(), Vec::<String>::new(), "after a failed job");

    // Effectively unbounded, so the cancel lands mid-traversal.
    let victim = service
        .submit(job(JobKind::Likelihood {
            traversals: 1_000_000,
        }))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while leftovers().len() < 3 {
        assert!(Instant::now() < deadline, "victim never built its stores");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(service.cancel(victim));
    assert_eq!(service.wait(victim).unwrap(), JobStatus::Cancelled);
    assert_eq!(leftovers(), Vec::<String>::new(), "after a cancelled job");
    assert_eq!(service.n_tenants(), 0);
}
