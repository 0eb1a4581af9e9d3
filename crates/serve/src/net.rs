//! Line-delimited JSON over TCP: one request object per line in, one
//! response object per line out. The protocol is deliberately minimal —
//! submit / status / wait / cancel / counters — so any language with a
//! socket and a JSON library is a client (`nc` works). Parsing and
//! emission are hand-rolled on [`ooc_core::json`]; the payloads are small
//! flat objects and the wire format stays inspectable with `cat`. A
//! request line is at most [`MAX_LINE_BYTES`] long.
//!
//! ```text
//! → {"op":"submit","tenant":"a","dataset":{"n_taxa":16,"n_sites":200,"seed":7},
//!    "profile":"residency = \"ooc-mem\"\nfraction = 0.25\n","job":{"kind":"likelihood"}}
//! ← {"ok":true,"job":1}
//! → {"op":"wait","job":1}
//! ← {"ok":true,"job":1,"status":{"status":"done","lnl":-2137.42,...}}
//! → {"op":"counters"}
//! ← {"ok":true,"counters":{"admissions":1,"rejections":0,...}}
//! ```

use crate::{DatasetRequest, JobKind, JobRequest, JobStatus, PartitionRequest, Service};
use ooc_core::json::{self, escape, fmt_f64, fmt_f64_array, get_u64, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; responds with its id.
    Submit(JobRequest),
    /// Current status of a job (non-blocking).
    Status {
        /// Job id.
        job: u64,
    },
    /// Block until the job is terminal, then respond with its status.
    Wait {
        /// Job id.
        job: u64,
    },
    /// Cancel a job.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Arena counters snapshot.
    Counters,
}

fn get_usize(v: &Value, key: &str) -> Result<usize, String> {
    Ok(get_u64(v, key)? as usize)
}

fn get_str(v: &Value, key: &str) -> Result<String, String> {
    json::get_str(v, key).map(str::to_owned)
}

fn parse_dataset(v: &Value) -> Result<DatasetRequest, String> {
    let partitions = match v.get("partitions") {
        None | Some(Value::Null) => None,
        Some(p) => {
            let arr = p.as_array().ok_or("'partitions' must be an array")?;
            Some(
                arr.iter()
                    .map(|part| {
                        Ok(PartitionRequest {
                            kind: get_str(part, "kind")?,
                            n_sites: get_usize(part, "n_sites")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            )
        }
    };
    Ok(DatasetRequest {
        n_taxa: get_usize(v, "n_taxa")?,
        // n_sites is optional for partitioned datasets.
        n_sites: v.get("n_sites").and_then(Value::as_u64).unwrap_or(0) as usize,
        seed: get_u64(v, "seed")?,
        partitions,
    })
}

fn parse_job_kind(v: &Value) -> Result<JobKind, String> {
    let kind = get_str(v, "kind")?;
    match kind.as_str() {
        "likelihood" => Ok(JobKind::Likelihood {
            traversals: v.get("traversals").and_then(Value::as_u64).unwrap_or(1) as usize,
        }),
        "smooth-branches" => Ok(JobKind::SmoothBranches {
            passes: get_usize(v, "passes")?,
            nr_iter: get_u64(v, "nr_iter")? as u32,
        }),
        "search" => Ok(JobKind::Search {
            max_rounds: get_usize(v, "max_rounds")?,
            spr_radius: v.get("spr_radius").and_then(Value::as_u64).unwrap_or(5) as u32,
        }),
        "evaluate-batch" => {
            let roots = v
                .get("roots")
                .and_then(Value::as_array)
                .ok_or("missing 'roots' array")?
                .iter()
                .map(|r| r.as_u64().map(|n| n as u32).ok_or("non-integer root"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(JobKind::EvaluateBatch { roots })
        }
        other => Err(format!("unknown job kind '{other}'")),
    }
}

fn dataset_json(d: &DatasetRequest) -> String {
    let mut out = format!(
        "{{\"n_taxa\":{},\"n_sites\":{},\"seed\":{}",
        d.n_taxa, d.n_sites, d.seed
    );
    if let Some(parts) = &d.partitions {
        let items: Vec<String> = parts
            .iter()
            .map(|p| {
                format!(
                    "{{\"kind\":\"{}\",\"n_sites\":{}}}",
                    escape(&p.kind),
                    p.n_sites
                )
            })
            .collect();
        out.push_str(&format!(",\"partitions\":[{}]", items.join(",")));
    }
    out.push('}');
    out
}

fn job_kind_json(k: &JobKind) -> String {
    match k {
        JobKind::Likelihood { traversals } => {
            format!("{{\"kind\":\"likelihood\",\"traversals\":{traversals}}}")
        }
        JobKind::SmoothBranches { passes, nr_iter } => {
            format!("{{\"kind\":\"smooth-branches\",\"passes\":{passes},\"nr_iter\":{nr_iter}}}")
        }
        JobKind::Search {
            max_rounds,
            spr_radius,
        } => format!(
            "{{\"kind\":\"search\",\"max_rounds\":{max_rounds},\"spr_radius\":{spr_radius}}}"
        ),
        JobKind::EvaluateBatch { roots } => {
            let items: Vec<String> = roots.iter().map(u32::to_string).collect();
            format!(
                "{{\"kind\":\"evaluate-batch\",\"roots\":[{}]}}",
                items.join(",")
            )
        }
    }
}

impl Request {
    /// Render as one wire line (no trailing newline) — the client half of
    /// the protocol, used by the `ooc-serve smoke` driver and tests.
    pub fn to_json(&self) -> String {
        match self {
            Request::Submit(j) => format!(
                "{{\"op\":\"submit\",\"tenant\":\"{}\",\"dataset\":{},\"profile\":\"{}\",\"job\":{}}}",
                escape(&j.tenant),
                dataset_json(&j.dataset),
                escape(&j.profile),
                job_kind_json(&j.job)
            ),
            Request::Status { job } => format!("{{\"op\":\"status\",\"job\":{job}}}"),
            Request::Wait { job } => format!("{{\"op\":\"wait\",\"job\":{job}}}"),
            Request::Cancel { job } => format!("{{\"op\":\"cancel\",\"job\":{job}}}"),
            Request::Counters => "{\"op\":\"counters\"}".to_string(),
        }
    }

    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line)?;
        let op = get_str(&v, "op")?;
        match op.as_str() {
            "submit" => Ok(Request::Submit(JobRequest {
                tenant: get_str(&v, "tenant")?,
                dataset: parse_dataset(v.get("dataset").ok_or("missing 'dataset'")?)?,
                profile: get_str(&v, "profile")?,
                job: parse_job_kind(v.get("job").ok_or("missing 'job'")?)?,
            })),
            "status" => Ok(Request::Status {
                job: get_u64(&v, "job")?,
            }),
            "wait" => Ok(Request::Wait {
                job: get_u64(&v, "job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: get_u64(&v, "job")?,
            }),
            "counters" => Ok(Request::Counters),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

/// Render a [`JobStatus`] as a JSON object.
pub fn status_json(status: &JobStatus) -> String {
    match status {
        JobStatus::Queued => "{\"status\":\"queued\"}".to_string(),
        JobStatus::Running => "{\"status\":\"running\"}".to_string(),
        JobStatus::Done {
            lnl,
            partition_lnls,
            batch,
        } => {
            let mut out = format!(
                "{{\"status\":\"done\",\"lnl\":{},\"partition_lnls\":{}",
                fmt_f64(*lnl),
                fmt_f64_array(partition_lnls)
            );
            if let Some(batch) = batch {
                out.push_str(&format!(",\"batch\":{}", fmt_f64_array(batch)));
            }
            out.push('}');
            out
        }
        JobStatus::Rejected { reason } => {
            format!(
                "{{\"status\":\"rejected\",\"reason\":\"{}\"}}",
                escape(reason)
            )
        }
        JobStatus::Cancelled => "{\"status\":\"cancelled\"}".to_string(),
        JobStatus::Failed { error } => {
            format!("{{\"status\":\"failed\",\"error\":\"{}\"}}", escape(error))
        }
    }
}

/// One response line.
#[derive(Debug, Clone)]
pub struct Response {
    /// Request handled without a protocol error (a *rejected or failed
    /// job* still answers `ok: true` — the outcome is in `status`).
    pub ok: bool,
    /// Job id, for job-scoped responses.
    pub job: Option<u64>,
    /// Job status, for `status`/`wait` responses.
    pub status: Option<JobStatus>,
    /// Counters, for `counters` responses.
    pub counters: Option<ooc_core::ArenaCounters>,
    /// Protocol error message when `ok` is false.
    pub error: Option<String>,
}

impl Response {
    fn err(msg: impl Into<String>) -> Self {
        Response {
            ok: false,
            job: None,
            status: None,
            counters: None,
            error: Some(msg.into()),
        }
    }

    fn ok() -> Self {
        Response {
            ok: true,
            job: None,
            status: None,
            counters: None,
            error: None,
        }
    }

    /// Render as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"ok\":{}", self.ok);
        if let Some(job) = self.job {
            out.push_str(&format!(",\"job\":{job}"));
        }
        if let Some(status) = &self.status {
            out.push_str(&format!(",\"status\":{}", status_json(status)));
        }
        if let Some(c) = &self.counters {
            out.push_str(&format!(
                ",\"counters\":{{\"admissions\":{},\"rejections\":{},\"releases\":{},\"fair_evictions\":{}}}",
                c.admissions, c.rejections, c.releases, c.fair_evictions
            ));
        }
        if let Some(e) = &self.error {
            out.push_str(&format!(",\"error\":\"{}\"", escape(e)));
        }
        out.push('}');
        out
    }
}

/// Handle one request against the service.
pub fn handle(service: &Service, req: Request) -> Response {
    match req {
        Request::Submit(req) => match service.submit(req) {
            Ok(id) => Response {
                job: Some(id),
                ..Response::ok()
            },
            Err(e) => Response::err(e.to_string()),
        },
        Request::Status { job } => match service.status(job) {
            Some(status) => Response {
                job: Some(job),
                status: Some(status),
                ..Response::ok()
            },
            None => Response::err(format!("unknown job {job}")),
        },
        Request::Wait { job } => match service.wait(job) {
            Some(status) => Response {
                job: Some(job),
                status: Some(status),
                ..Response::ok()
            },
            None => Response::err(format!("unknown job {job}")),
        },
        Request::Cancel { job } => {
            if service.cancel(job) {
                Response {
                    job: Some(job),
                    ..Response::ok()
                }
            } else {
                Response::err(format!("unknown job {job}"))
            }
        }
        Request::Counters => Response {
            counters: Some(service.counters()),
            ..Response::ok()
        },
    }
}

/// Longest request line the service buffers (newline excluded). A longer
/// line gets one `malformed request` response and the connection closes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Discard input up to and including the next newline (or end of stream)
/// without buffering it.
fn skip_line(reader: &mut impl BufRead) {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) if !buf.is_empty() => buf,
            _ => return,
        };
        let (n, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        reader.consume(n);
        if done {
            return;
        }
    }
}

fn serve_connection(service: &Service, stream: TcpStream) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from a full one.
        let mut bounded = (&mut reader).take(MAX_LINE_BYTES as u64 + 1);
        match bounded.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let too_long = line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n');
        let resp = if too_long {
            // The rest of the line is read (and dropped) before replying:
            // closing with unread input would reset the connection under
            // the client before it sees the response.
            skip_line(&mut reader);
            Response::err(format!(
                "malformed request: line longer than {MAX_LINE_BYTES} bytes"
            ))
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => match Request::parse(text) {
                    Ok(req) => handle(service, req),
                    Err(e) => Response::err(format!("malformed request: {e}")),
                },
                Err(_) => Response::err("malformed request: invalid UTF-8"),
            }
        };
        let mut out = resp.to_json();
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() || too_long {
            return;
        }
    }
}

/// Accept connections forever, one thread per connection. Returns only on
/// listener error. Call with a pre-bound listener so tests can use an
/// ephemeral port (`TcpListener::bind("127.0.0.1:0")`).
pub fn serve(service: Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    loop {
        let (stream, _) = listener.accept()?;
        let service = service.clone();
        std::thread::spawn(move || serve_connection(&service, stream));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_submit_with_partitions_and_batch() {
        let req = Request::parse(
            r#"{"op":"submit","tenant":"t","profile":"residency = \"inram\"",
                "dataset":{"n_taxa":8,"seed":3,"partitions":[{"kind":"dna","n_sites":40}]},
                "job":{"kind":"evaluate-batch","roots":[1,2]}}"#,
        )
        .unwrap();
        match req {
            Request::Submit(j) => {
                assert_eq!(j.tenant, "t");
                assert_eq!(j.dataset.partitions.as_ref().unwrap().len(), 1);
                assert_eq!(j.job, JobKind::EvaluateBatch { roots: vec![1, 2] });
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn job_kind_defaults_mirror_the_wire_doc() {
        let req = Request::parse(
            r#"{"op":"submit","tenant":"t","profile":"p",
                "dataset":{"n_taxa":8,"n_sites":100,"seed":3},
                "job":{"kind":"likelihood"}}"#,
        )
        .unwrap();
        match req {
            Request::Submit(j) => assert_eq!(j.job, JobKind::Likelihood { traversals: 1 }),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn status_json_round_trips_through_parser() {
        let s = JobStatus::Done {
            lnl: -2137.5,
            partition_lnls: vec![-1000.25, -1137.25],
            batch: Some(vec![-2137.5]),
        };
        let v = Value::parse(&status_json(&s)).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("done"));
        assert_eq!(v.get("lnl"), Some(&Value::Float(-2137.5)));
        assert_eq!(
            v.get("partition_lnls")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            2
        );

        let r = JobStatus::Rejected {
            reason: "want 10 bytes, \"arena\" has 5".into(),
        };
        let v = Value::parse(&status_json(&r)).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("rejected"));
    }

    #[test]
    fn request_wire_round_trips() {
        let reqs = vec![
            Request::Submit(JobRequest {
                tenant: "a/b".into(),
                dataset: DatasetRequest {
                    n_taxa: 16,
                    n_sites: 0,
                    seed: 7,
                    partitions: Some(vec![PartitionRequest {
                        kind: "dna".into(),
                        n_sites: 90,
                    }]),
                },
                profile: "residency = \"ooc-mem\"\nfraction = 0.25\n".into(),
                job: JobKind::Search {
                    max_rounds: 3,
                    spr_radius: 5,
                },
            }),
            Request::Status { job: 3 },
            Request::Wait { job: 4 },
            Request::Cancel { job: 5 },
            Request::Counters,
        ];
        for r in reqs {
            assert_eq!(Request::parse(&r.to_json()).unwrap(), r, "{}", r.to_json());
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in [
            "{}",
            r#"{"op":"unknown"}"#,
            r#"{"op":"status"}"#,
            r#"{"op":"submit","tenant":"t"}"#,
            "not json",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
