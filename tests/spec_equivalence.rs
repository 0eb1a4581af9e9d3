//! Spec-resolution equivalence: every arity and residency `EngineSpec`
//! resolves — in-RAM or managed over memory/file/file-limit backing, one
//! block or several, one partition or several, pipelined or not — goes
//! through one construction path and must compute exactly what hand-built
//! serial in-RAM `PlfEngine`s compute: one `PlfEngine::new` per partition
//! is the oracle for everything a partition computes alone, a
//! hand-assembled in-RAM one-block engine for what the partitions
//! optimise jointly. Residency, sharding, partitioning
//! and pipelining never change computed values, so this is `assert_eq!` on
//! `f64`, no tolerance.

mod common;

use ooc_core::json::Value;
use ooc_core::{ManualClock, MemorySink, Recorder, StrategyKind};
use phylo_ooc::plf::{
    BuildContext, DynEngine, EngineSpec, InRamStore, LikelihoodEngine, PlfEngine, Residency,
};
use phylo_ooc::run::{run as run_job, Job, MetricsFile};
use phylo_ooc::seq::PartitionKind;
use phylo_ooc::setup::{self, DatasetSpec};
use phylo_ooc::tree::spr::subtree_contains;
use phylo_ooc::tree::{ChildRef, HalfEdgeId};

fn fig2_dataset() -> setup::Dataset {
    setup::simulate_dataset(&DatasetSpec {
        n_taxa: 16,
        n_sites: 160,
        seed: 20260809,
        ..Default::default()
    })
}

fn fig2_partitioned() -> setup::Dataset {
    setup::simulate_dataset(&DatasetSpec {
        n_taxa: 12,
        seed: 7,
        parts: vec![(PartitionKind::Dna, 90), (PartitionKind::Protein, 40)],
        ..Default::default()
    })
}

/// Resolve `spec` over the dataset and return its log-likelihood.
fn spec_lnl(spec: &EngineSpec, data: &setup::Dataset, ctx: &BuildContext) -> f64 {
    spec.build(&data.tree, &setup::part_specs(data), ctx)
        .unwrap()
        .engine
        .log_likelihood()
        .unwrap()
}

/// What one engine computes over the matrix's fixed call sequence.
#[derive(Debug, PartialEq)]
struct Run {
    lnl: f64,
    partition_lnls: Vec<f64>,
    branch: (f64, f64),
    alpha: (f64, f64),
    smoothed: f64,
}

fn run<E: LikelihoodEngine>(
    engine: &mut E,
    partition_lnls: impl FnOnce(&mut E) -> Vec<f64>,
) -> Run {
    let h = engine.tree().default_root_edge();
    Run {
        lnl: engine.log_likelihood().unwrap(),
        partition_lnls: partition_lnls(engine),
        branch: engine.optimize_branch(h, 8).unwrap(),
        alpha: engine.optimize_alpha(1e-2, 8).unwrap(),
        smoothed: engine.smooth_branches(1, 2).unwrap(),
    }
}

/// One hand-built serial in-RAM engine per partition.
fn reference_members(data: &setup::Dataset, p: usize) -> Vec<PlfEngine<InRamStore>> {
    (0..p)
        .map(|i| {
            let part = &data.parts[i];
            PlfEngine::new(
                data.tree.clone(),
                &part.comp,
                part.model.clone(),
                data.alpha,
                data.n_cats,
                InRamStore::new(data.tree.n_inner(), data.width(i)),
            )
        })
        .collect()
}

/// The reference: the hand-built member on its own for one partition —
/// there the joint optimum is the serial one; for several, the
/// hand-assembled in-RAM engine of one block each, held to the members
/// run independently: their log-likelihoods bit for bit, the joint one
/// their in-order sum.
fn reference_run(data: &setup::Dataset, p: usize) -> Run {
    let mut members = reference_members(data, p);
    if p == 1 {
        return run(&mut members[0], |e| vec![e.log_likelihood().unwrap()]);
    }
    let want = run(&mut common::inram_joint(data, p, 1), |e| {
        e.partition_lnls().unwrap()
    });
    let alone: Vec<f64> = members
        .iter_mut()
        .map(|e| e.log_likelihood().unwrap())
        .collect();
    assert_eq!(want.partition_lnls, alone);
    assert_eq!(want.lnl, alone.iter().fold(0.0, |sum, lnl| sum + lnl));
    want
}

/// Take one rebuilt vector — a cherry, or with `with_operand` a tip-inner
/// vector over a stored operand — through every state it can be in and
/// return the bits of every number that comes out: rebuilt by its parent,
/// its tip branch changed, its operand's subtree changed, the root moved
/// onto each of its own child branches (rooted on its tip branch it is
/// a stored vector for that orientation), Newton–Raphson with it as a root
/// end, stored and rebuilt, back to where it started, then cut apart by an
/// SPR and put back.
fn rebuilt_walk<E: LikelihoodEngine>(engine: &mut E, with_operand: bool) -> Vec<u64> {
    let tree = engine.tree().clone();
    let is_tip = |h: HalfEdgeId| tree.is_tip(tree.neighbor(h));
    let up = (0..tree.n_inner() as u32)
        .flat_map(|i| (0..3).map(move |k| (i, k)))
        .map(|(i, k)| tree.inner_half_edge(i, k))
        .find(|&h| {
            let class = tree.child_ref(tree.back(h));
            !is_tip(h)
                && matches!(class, ChildRef::Rebuilt { operand, .. } if operand.is_some() == with_operand)
        })
        .expect("a tree of a dozen tips has a cherry and a tip-inner vector over a stored one");
    let (l, r) = tree.children_dirs(up);
    let (to_a, to_b) = if is_tip(l) { (l, r) } else { (r, l) };
    // A branch on the reader's far side: rooted there, the reader's own
    // combine rebuilds the subject.
    let far = tree.children_dirs(tree.back(up)).0;
    let mut out = vec![engine.log_likelihood().unwrap().to_bits()];
    out.push(engine.log_likelihood_at(far, false).unwrap().to_bits());
    engine.set_branch_length(to_a, 0.37);
    out.push(engine.log_likelihood_at(far, false).unwrap().to_bits());
    if with_operand {
        let below = tree.children_dirs(tree.back(to_b)).0;
        engine.set_branch_length(below, 0.21);
        out.push(engine.log_likelihood_at(far, false).unwrap().to_bits());
    }
    for root in [to_a, to_b] {
        out.push(engine.log_likelihood_at(root, false).unwrap().to_bits());
    }
    for end_of in [to_a, up] {
        let (z, lnl) = engine.optimize_branch(end_of, 8).unwrap();
        out.extend([z.to_bits(), lnl.to_bits()]);
    }
    out.push(engine.log_likelihood().unwrap().to_bits());

    // Prune tip a together with the subject's node, regraft far away.
    let beside = [up, to_b, tree.back(up), tree.back(to_b)];
    let target = tree
        .branches()
        .find(|&t| {
            !beside.contains(&t)
                && !beside.contains(&tree.back(t))
                && !subtree_contains(&tree, to_a, tree.node_of(t))
                && !subtree_contains(&tree, to_a, tree.neighbor(t))
        })
        .expect("a regraft branch away from the subject");
    let undo = engine.apply_spr(to_a, target, None);
    out.push(engine.log_likelihood().unwrap().to_bits());
    engine.undo_spr(to_a, &undo);
    out.push(engine.log_likelihood().unwrap().to_bits());
    out.push(engine.log_likelihood_at(to_b, false).unwrap().to_bits());
    out
}

fn three_kinds() -> setup::Dataset {
    setup::simulate_dataset(&DatasetSpec {
        n_taxa: 12,
        seed: 11,
        parts: vec![
            (PartitionKind::Dna, 90),
            (PartitionKind::Protein, 30),
            (PartitionKind::Codon, 12),
        ],
        ..Default::default()
    })
}

/// A vector's class — stored, or rebuilt by its reader — changes with the
/// orientation and with the topology; the numbers never do, in whatever
/// shape the spec resolves to.
#[test]
fn a_cherry_reads_the_same_rebuilt_or_stored_in_every_shape() {
    let dir = tempfile::tempdir().unwrap();
    for (data, with_operand) in [fig2_dataset(), three_kinds()]
        .iter()
        .flat_map(|data| [(data, false), (data, true)])
    {
        let p = data.parts.len();
        // The oracle that shares no constructor with what it checks: each
        // partition alone. For p = 1 it is the whole walk's reference (the
        // joint optimum is the serial one); for p = 3 the walk compares
        // against the hand-assembled one-block engine.
        let mut members = reference_members(data, p);
        let alone: Vec<f64> = members
            .iter_mut()
            .map(|e| e.log_likelihood().unwrap())
            .collect();
        let want = if p == 1 {
            rebuilt_walk(&mut members[0], with_operand)
        } else {
            rebuilt_walk(&mut common::inram_joint(data, p, 1), with_operand)
        };
        let residencies = [
            Residency::InRam,
            Residency::OocMem { fraction: 0.3 },
            Residency::FileLimit {
                limit_bytes: data.total_vector_bytes() / 3,
            },
        ];
        for residency in residencies {
            for shards in [1usize, 2] {
                let spec = EngineSpec {
                    residency,
                    shards,
                    ..setup::base_spec(data)
                };
                let ctx = BuildContext::new().vector_path(dir.path().join("rebuilt.bin"));
                let built = spec.build(&data.tree, &setup::part_specs(data), &ctx);
                let mut engine = built.unwrap().engine;
                let cell = format!("p={p} {} k={shards}", residency.name());
                assert_eq!(engine.partition_lnls().unwrap(), alone, "{cell}");
                let joint = alone.iter().fold(0.0, |sum, lnl| sum + lnl);
                assert_eq!(engine.log_likelihood().unwrap(), joint, "{cell}");
                let got = rebuilt_walk(&mut engine, with_operand);
                assert_eq!(got, want, "{cell} operand={with_operand}");
            }
        }
    }
}

/// Every cell of residency × blocks × partitions × I/O threads resolves to
/// the same type and is bit-identical to the serial reference.
#[test]
fn every_arity_and_residency_matches_hand_built_serial_members() {
    let data = fig2_partitioned();
    let all_parts = setup::part_specs(&data);
    let dir = tempfile::tempdir().unwrap();
    let total: u64 = (0..data.parts.len())
        .map(|i| data.partition_vector_bytes(i))
        .sum();
    let residencies = [
        Residency::InRam,
        Residency::OocMem { fraction: 0.3 },
        Residency::File { fraction: 0.3 },
        Residency::FileLimit {
            limit_bytes: total / 3,
        },
    ];
    for p in [1usize, 2] {
        let want = reference_run(&data, p);
        for (r, &residency) in residencies.iter().enumerate() {
            let file_backed = matches!(
                residency,
                Residency::File { .. } | Residency::FileLimit { .. }
            );
            for shards in [1usize, 3] {
                // The write-behind queue needs a file to clone handles of.
                for io_threads in 0..=usize::from(file_backed) {
                    let cell = format!("{} k={shards} p={p} io={io_threads}", residency.name());
                    let spec = EngineSpec {
                        residency,
                        strategy: StrategyKind::NextUse,
                        shards,
                        io_threads,
                        ..setup::base_spec(&data)
                    };
                    let path = dir
                        .path()
                        .join(format!("{r}-{shards}-{p}-{io_threads}.bin"));
                    let (sink, events) = MemorySink::new();
                    let rec = Recorder::new(ManualClock::new(), sink);
                    let ctx = BuildContext::new()
                        .vector_path(&path)
                        .recorders(move |_| rec.clone());
                    let built = spec.build(&data.tree, &all_parts[..p], &ctx).unwrap();

                    // A single partition's file is the path as given;
                    // several take extensions `p<i>`.
                    assert_eq!(path.exists(), file_backed && p == 1, "{cell}");
                    assert_eq!(
                        path.with_extension("p1").exists(),
                        file_backed && p > 1,
                        "{cell}"
                    );

                    let mut engine = built.engine;
                    let got = run(&mut engine, |e| e.partition_lnls().unwrap());
                    assert_eq!(got, want, "{cell}");
                    // Spec-built managers track dirtiness: the paper's
                    // unconditional swap is a figure preset, not the engine.
                    if let Some(s) = engine.ooc_stats() {
                        assert!(
                            s.evictions == 0 || s.disk_writes < s.evictions,
                            "{cell}: {s}"
                        );
                    }

                    // Every residency shards — in-RAM too — and a single
                    // shard has no barrier to record spans around.
                    let mut sharded: Vec<u32> = events
                        .lock()
                        .iter()
                        .filter(|e| e.layer == "sharded")
                        .filter_map(|e| e.shard)
                        .collect();
                    sharded.sort_unstable();
                    sharded.dedup();
                    let expect: Vec<u32> = if shards > 1 {
                        (0..shards as u32).collect()
                    } else {
                        Vec::new()
                    };
                    assert_eq!(sharded, expect, "{cell}");
                }
            }
        }
    }
}

#[test]
fn sharded_file_pipelined_spec_matches_inram() {
    let data = fig2_dataset();
    let dir = tempfile::tempdir().unwrap();
    let reference = setup::inram_engine(&data).log_likelihood().unwrap();
    let spec = EngineSpec {
        residency: Residency::File { fraction: 0.25 },
        shards: 2,
        io_threads: 2,
        ..setup::base_spec(&data)
    };
    let ctx = BuildContext::new().vector_path(dir.path().join("v.bin"));
    assert_eq!(reference, spec_lnl(&spec, &data, &ctx));
}

/// The run path is an identity over the hand-written sequence it
/// replaced: for one unnamed and three named partitions × residency ×
/// shards, [`phylo_ooc::run::run`] returns the lnL bits, per-partition
/// lnLs and merged and per-partition counters of build → traverse →
/// stats, records under exactly the three scope-naming rules, records
/// nothing when nobody will read it, and leaves no vector file behind.
#[test]
fn the_runner_equals_the_hand_written_sequence() {
    let dir = tempfile::tempdir().unwrap();
    let files = || std::fs::read_dir(dir.path()).unwrap().count();
    for data in [fig2_dataset(), three_kinds()] {
        let p = data.parts.len();
        let residencies = [
            Residency::InRam,
            Residency::OocMem { fraction: 0.3 },
            Residency::FileLimit {
                limit_bytes: data.total_vector_bytes() / 3,
            },
        ];
        for residency in residencies {
            for shards in [1usize, 2] {
                let cell = format!("p={p} {} k={shards}", residency.name());
                let spec = EngineSpec {
                    residency,
                    shards,
                    ..setup::base_spec(&data)
                };
                let ctx = BuildContext::new().vector_path(dir.path().join("hand.bin"));
                let built = spec.build(&data.tree, &setup::part_specs(&data), &ctx);
                let built = built.unwrap();
                let mut engine = built.engine;
                let lnl = engine.full_traversals(2).unwrap();
                let part_lnls = engine.partition_lnls().unwrap();
                let (part_stats, stats) = (engine.partition_ooc_stats(), engine.ooc_stats());
                drop(engine);
                // One file per partition, for the file-backed residency only.
                let file_backed = matches!(residency, Residency::FileLimit { .. });
                assert_eq!(built.vector_files.len(), if file_backed { p } else { 0 });
                assert_eq!(files(), built.vector_files.len(), "{cell}");
                for file in &built.vector_files {
                    std::fs::remove_file(file).unwrap();
                }
                let managed = residency != Residency::InRam;
                assert_eq!(stats.is_some(), managed, "{cell}");

                let work = |engine: &mut Box<dyn DynEngine>, _: &[Recorder]| {
                    let lnl = engine.full_traversals(2).map_err(|e| e.to_string())?;
                    Ok((lnl, engine.partition_lnls().map_err(|e| e.to_string())?))
                };
                let stream = dir.path().join("m.jsonl");
                for base in ["", "cell/7"] {
                    let metrics = MetricsFile::new(Some(stream.clone()));
                    let job = Job {
                        scope: base,
                        metrics: &metrics,
                        vector_path: Some(dir.path().join("run.bin")),
                        ..Job::new(&spec, &data)
                    };
                    let got = run_job(job, work).unwrap();
                    assert_eq!(got.value.0.to_bits(), lnl.to_bits(), "{cell}: lnL");
                    assert_eq!(got.value.1, part_lnls, "{cell}: per-partition lnLs");
                    assert_eq!(got.stats, stats, "{cell}: merged counters");
                    assert_eq!(got.part_stats, part_stats, "{cell}: per-partition counters");
                    // `base`, `base/<name>`, or `<name>` when the base is empty.
                    let want: Vec<String> = data
                        .parts
                        .iter()
                        .map(|part| match (base, part.name.as_str()) {
                            (base, "") => base.to_owned(),
                            ("", name) => name.to_owned(),
                            (base, name) => format!("{base}/{name}"),
                        })
                        .collect();
                    let scopes: Vec<&str> = got.recs.iter().map(Recorder::scope).collect();
                    assert_eq!(scopes, want, "{cell}: scopes");
                    assert_eq!(got.attribution.len(), p, "{cell}");
                    // The stream: every scope headed by one profile (the
                    // spec, verbatim) and closed by its counters.
                    let text = std::fs::read_to_string(&stream).unwrap();
                    let records: Vec<Value> =
                        text.lines().map(|l| Value::parse(l).unwrap()).collect();
                    let of = |ty: &str, scope: &str| {
                        let is = |r: &&Value, key: &str, v: &str| {
                            r.get(key).and_then(Value::as_str) == Some(v)
                        };
                        records
                            .iter()
                            .filter(|r| is(r, "type", ty) && is(r, "scope", scope))
                            .count()
                    };
                    for scope in &want {
                        assert_eq!(of("profile", scope), 1, "{cell}: {scope}");
                        assert_eq!(
                            of("ooc-stats", scope),
                            usize::from(managed),
                            "{cell}: {scope}"
                        );
                    }
                    let profiled = records
                        .iter()
                        .filter_map(|r| r.get("profile").and_then(Value::as_str))
                        .all(|profile| profile == spec.to_toml());
                    assert!(profiled, "{cell}: profile is the spec's TOML");
                    std::fs::remove_file(&stream).unwrap();
                    assert_eq!(files(), 0, "{cell}: vector files outlived the run");
                }

                // Nobody reads it: nothing is recorded, same values.
                let job = Job {
                    vector_path: Some(dir.path().join("run.bin")),
                    ..Job::new(&spec, &data)
                };
                let silent = run_job(job, work).unwrap();
                assert!(
                    silent.recs.is_empty() && silent.attribution.is_empty(),
                    "{cell}"
                );
                assert_eq!(silent.value.0.to_bits(), lnl.to_bits(), "{cell}");
                assert_eq!(silent.part_stats, part_stats, "{cell}");
                // Observed without a stream: recorded, not written.
                let job = Job {
                    observed: true,
                    vector_path: Some(dir.path().join("run.bin")),
                    ..Job::new(&spec, &data)
                };
                let observed = run_job(job, work).unwrap();
                assert_eq!(observed.recs.len(), p, "{cell}");
                assert_eq!(observed.stats, stats, "{cell}");
                assert_eq!(files(), 0, "{cell}");
            }
        }
    }
}

/// A run that fails — in the build or in the workload — still removes the
/// vector files it created.
#[test]
fn a_failed_run_leaves_no_vector_files() {
    let data = fig2_partitioned();
    let dir = tempfile::tempdir().unwrap();
    let spec = EngineSpec {
        residency: Residency::File { fraction: 0.3 },
        ..setup::base_spec(&data)
    };
    let job = |path: std::path::PathBuf| Job {
        vector_path: Some(path),
        ..Job::new(&spec, &data)
    };
    let err = run_job(job(dir.path().join("v.bin")), |_, _| {
        Err::<(), _>("boom".to_owned())
    });
    assert_eq!(err.err().as_deref(), Some("boom"));
    assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0);
    // The second partition's file cannot be created: `v.p1` is a directory.
    std::fs::create_dir(dir.path().join("v.p1")).unwrap();
    let err = run_job(job(dir.path().join("v.bin")), |_, _| Ok(()));
    assert!(err.err().unwrap().contains("cannot create vector file"));
    assert!(
        !dir.path().join("v.p0").exists(),
        "the first partition's file"
    );
}
