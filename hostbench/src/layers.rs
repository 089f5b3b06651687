//! The traced run's layer replay: calls each lower layer's public functions
//! on the workload's own inputs and times every call. Times inside an SPMD
//! job are taken by rank 0 between two barriers, so a collective phase is
//! timed until its last rank finishes.

use crate::stats::{Probe, Tally};
use hetero_fault::{replay_campaign, AttemptEnv, FaultTimeline};
use hetero_fem::assembly::{apply_dirichlet, assemble_vector, scalar_kernels, MatrixAssembly};
use hetero_fem::rd::RdConfig;
use hetero_fem::{DofMap, ElementOrder};
use hetero_hpc::canon::{prep_key, request_key};
use hetero_hpc::recovery::execute_resilient;
use hetero_hpc::snapshot::{Snapshot, SnapshotDelta};
use hetero_hpc::{execute, prep, App, Fidelity, RunRequest};
use hetero_linalg::solver::{bicgstab, cg, gmres};
use hetero_mesh::{DistributedMesh, StructuredHexMesh};
use hetero_partition::block::{near_cubic_factors, BlockLayout};
use hetero_platform::catalog;
use hetero_serve::{JobOutcome, Journal, ResultCache, ServeConfig, ServeHandle};
use hetero_simmpi::{
    run_spmd_opts, ClusterTopology, ComputeModel, EngineOpts, FaultPlan, NetworkModel, Payload,
    SpmdConfig,
};
use hetero_trace::MetricsRegistry;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Time steps replayed per numerical mesh.
const STEPS: usize = 3;
/// SpMVs timed per step.
const SPMVS: usize = 8;
/// Messages in the scheduler ping-pong.
const HOPS: usize = 2000;
/// Ranks of the spawn probe (the numeric sweep's widest job).
const SPAWN_RANKS: usize = 64;
/// Ranks of the modeled-engine probe (the top of the paper's ladder).
const MODELED_RANKS: usize = 1000;

/// What a workload hands the replay: its own sizes and requests.
pub struct ReplayInputs {
    /// `(ranks, cells per rank axis)` of the numerical meshes.
    pub meshes: Vec<(usize, usize)>,
    /// Requests whose keys, setups, runs, and stored outcomes are replayed.
    pub requests: Vec<RunRequest>,
    /// A resilient request: its fault model drives the fault-layer replay
    /// and its campaign is timed when the passes did not time one.
    pub resilient: RunRequest,
    /// The plan document of the plan-layer replay.
    pub plan_doc: String,
}

/// Replays every layer, skipping a metric the traced passes already
/// measured (`have`), and records into `out`.
pub fn replay(inp: &ReplayInputs, have: &Probe, out: &mut Probe, dir: &Path, tally: &mut Tally) {
    let need = |name: &str| have.get(name).is_none();
    for &(ranks, axis) in &inp.meshes {
        numeric(ranks, axis, out, tally);
    }
    engine(out);
    fault(&inp.resilient, out);
    modeled(inp, out, &need, tally);
    if need("recovery.campaign_ms") {
        match out.time("recovery.campaign_ms", || execute_resilient(&inp.resilient)) {
            Ok(r) => {
                out.record("recovery.attempts", r.stats.attempts as f64);
                tally.ok();
            }
            Err(e) => tally.fail(format!("replayed campaign refused: {e}")),
        }
    }
    if need("plan.parse_resolve_ms") || need("plan.instance_keys_ms") {
        plan(&inp.plan_doc, out, tally);
    }
    canon(&inp.requests, out);
    if need("serve.submit_us") {
        serve(&inp.requests, out, dir, tally);
    }
    store(&inp.requests, out, dir, tally);
}

/// Mesh, partition, DoF map, assembly, preconditioner, Krylov solves,
/// SpMV, halo traffic, and snapshot capture/delta/restore on a Q2 RD-style
/// system of `ranks x axis^3` cells, with the paper RD solver settings.
fn numeric(ranks: usize, axis: usize, out: &mut Probe, tally: &mut Tally) {
    let App::Rd(RdConfig { precond, solve, .. }) = App::paper_rd(STEPS) else {
        unreachable!("paper_rd is an RD app")
    };
    let (fx, fy, fz) = near_cubic_factors(ranks);
    let t = Instant::now();
    let mesh = StructuredHexMesh::new(
        fx * axis,
        fy * axis,
        fz * axis,
        hetero_mesh::Point3::new(0.0, 0.0, 0.0),
        hetero_mesh::Point3::new(1.0, 1.0, 1.0),
    );
    let mesh_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let assignment = Arc::new(BlockLayout::for_mesh(&mesh, ranks).assignment());
    out.record("partition.assign_ms", t.elapsed().as_secs_f64());

    let cfg = SpmdConfig {
        size: ranks,
        topo: ClusterTopology::uniform(ranks.div_ceil(8), 8),
        net: NetworkModel::ideal(),
        compute: ComputeModel::new(1e9, 4e9),
        seed: 0,
    };
    let (res, _) = run_spmd_opts(
        cfg,
        EngineOpts::default(),
        FaultPlan::none(),
        None,
        |comm| {
            let rank = comm.rank();
            let mut spans: Vec<(&'static str, f64)> = Vec::new();
            let mark = |comm: &mut hetero_simmpi::SimComm| {
                comm.barrier();
                Instant::now()
            };
            let t = mark(comm);
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), rank, ranks);
            let t1 = mark(comm);
            spans.push(("mesh.build_ms", (t1 - t).as_secs_f64()));
            let dm = DofMap::build(&dmesh, ElementOrder::Q2, comm);
            let t2 = mark(comm);
            spans.push(("fem.dofmap_ms", (t2 - t1).as_secs_f64()));

            let kern = scalar_kernels(ElementOrder::Q2, mesh.cell_size());
            let cell_for = |step: usize| {
                let (m, k) = (1.0 + 0.125 * step as f64, 0.75 + 0.0625 * step as f64);
                let kern = &kern;
                move |_i: usize, o: &mut [f64]| {
                    for (o, (a, b)) in o.iter_mut().zip(kern.mass.iter().zip(&kern.stiffness)) {
                        *o = m * a + k * b;
                    }
                }
            };
            let mut asm = MatrixAssembly::new(2);
            let t = mark(comm);
            black_box(asm.assemble(&dm, &dm, comm, cell_for(0)));
            let t1 = mark(comm);
            spans.push(("fem.assembly_symbolic_ms", (t1 - t).as_secs_f64()));

            let before = *comm.stats();
            let mut iters = 0usize;
            let mut u = dm.new_vector();
            for step in 1..=STEPS {
                let t = mark(comm);
                let mut a = asm.assemble(&dm, &dm, comm, cell_for(step));
                let mut b = assemble_vector(&dm, comm, |_i, o| {
                    o.copy_from_slice(&kern.load[..o.len()]);
                });
                apply_dirichlet(&mut a, &mut b, &dm, |p| p.x + 2.0 * p.y - p.z, comm);
                let t1 = mark(comm);
                spans.push(("fem.assembly_step_ms", (t1 - t).as_secs_f64()));
                let m = precond.build(&a, comm);
                let t2 = mark(comm);
                spans.push(("linalg.precond_ms", (t2 - t1).as_secs_f64()));
                u.fill(0.0);
                let s = cg(&a, &b, &mut u, m.as_ref(), solve, comm);
                let mut x = dm.new_vector();
                let s_g = gmres(&a, &b, &mut x, m.as_ref(), 30, solve, comm);
                x.fill(0.0);
                let s_b = bicgstab(&a, &b, &mut x, m.as_ref(), solve, comm);
                let t3 = mark(comm);
                spans.push(("linalg.solve_ms", (t3 - t2).as_secs_f64()));
                iters += s.iterations;
                if rank == 0 && !(s.converged && s_g.converged && s_b.converged) {
                    spans.push(("unconverged", 1.0));
                }
                let mut y = dm.new_vector();
                let t4 = mark(comm);
                for _ in 0..SPMVS {
                    a.spmv(&mut u, &mut y, comm);
                }
                let t5 = mark(comm);
                spans.push(("linalg.spmv_us", (t5 - t4).as_secs_f64() / SPMVS as f64));
            }
            let after = *comm.stats();
            let msgs = (after.msgs_sent - before.msgs_sent) as f64 / STEPS as f64;
            let bytes = (after.bytes_sent - before.bytes_sent) / STEPS as f64;

            // Checkpoint path: capture, serialize, delta against the next
            // field, and restore, as a resilient campaign does per commit.
            let mut snap = Snapshot::new("RD", 0.0, 0);
            let t = mark(comm);
            snap.capture("u", &dm, &u, comm);
            let t1 = mark(comm);
            spans.push(("snapshot.capture_ms", (t1 - t).as_secs_f64()));
            let t = Instant::now();
            black_box(snap.to_json());
            spans.push(("snapshot.serialize_ms", t.elapsed().as_secs_f64()));
            u.scale(1.0625, comm);
            let mut next = Snapshot::new("RD", 0.25, 1);
            next.capture("u", &dm, &u, comm);
            let t = Instant::now();
            black_box(SnapshotDelta::diff(&snap, &next).to_json());
            spans.push(("snapshot.delta_ms", t.elapsed().as_secs_f64()));
            let t = mark(comm);
            black_box(next.restore("u", &dm, comm));
            let t1 = mark(comm);
            spans.push(("snapshot.restore_ms", (t1 - t).as_secs_f64()));
            (spans, iters as f64 / STEPS as f64, msgs, bytes)
        },
    );
    let ranks_out = match res {
        Ok(r) => r,
        Err(e) => {
            tally.fail(format!("layer replay at {ranks}x{axis}^3 faulted: {e:?}"));
            return;
        }
    };
    let (mut msgs, mut bytes) = (0.0, 0.0);
    for r in &ranks_out {
        msgs += r.value.2;
        bytes += r.value.3;
    }
    let (spans, iters, _, _) = &ranks_out[0].value;
    let mut converged = true;
    for &(name, s) in spans {
        if name == "unconverged" {
            converged = false;
        } else if name == "mesh.build_ms" {
            // The per-rank views complete the mesh built on the host.
            out.record(name, mesh_s + s);
        } else {
            out.record(name, s);
        }
    }
    tally.check(converged, || {
        format!("layer replay solve did not converge at {ranks}x{axis}^3")
    });
    out.record("linalg.krylov_iters", *iters);
    out.record("simmpi.msgs_per_step", msgs);
    out.record("simmpi.bytes_per_step", bytes);
}

/// SPMD engine: spawning a 64-rank job and one scheduler hop (a blocking
/// message that suspends one rank and resumes the other).
fn engine(out: &mut Probe) {
    let cfg = |size: usize| SpmdConfig {
        size,
        topo: ClusterTopology::uniform(size.div_ceil(8), 8),
        net: NetworkModel::ideal(),
        compute: ComputeModel::new(1e9, 4e9),
        seed: 0,
    };
    for _ in 0..5 {
        out.time("simmpi.spawn_ms", || {
            let (r, _) = run_spmd_opts(
                cfg(SPAWN_RANKS),
                EngineOpts::default(),
                FaultPlan::none(),
                None,
                |comm| comm.rank(),
            );
            black_box(r.is_ok())
        });
    }
    for _ in 0..3 {
        let t = Instant::now();
        let (r, _) = run_spmd_opts(
            cfg(2),
            EngineOpts::cooperative(1),
            FaultPlan::none(),
            None,
            |comm| {
                let peer = 1 - comm.rank();
                for i in 0..HOPS as u64 {
                    if comm.rank() == 0 {
                        comm.send(peer, i, Payload::Usize(vec![i as usize]));
                        black_box(comm.recv_usize(peer, i));
                    } else {
                        black_box(comm.recv_usize(peer, i));
                        comm.send(peer, i, Payload::Usize(vec![i as usize]));
                    }
                }
            },
        );
        black_box(r.is_ok());
        out.record(
            "simmpi.hop_ns",
            t.elapsed().as_secs_f64() / (2 * HOPS) as f64,
        );
    }
}

/// Fault layer: timelines for the resilient request's fault model and a
/// campaign replay over them.
fn fault(req: &RunRequest, out: &mut Probe) {
    let Some(spec) = &req.resilience else {
        return;
    };
    let topo = req.platform.topology(req.ranks);
    let nodes = topo.num_nodes();
    let spot: Vec<usize> = (0..nodes).step_by(2).collect();
    let horizon = 3600.0;
    let t = Instant::now();
    let timelines: Vec<FaultTimeline> = (0..64u64)
        .map(|a| FaultTimeline::generate(&spec.faults, nodes, &spot, horizon, req.seed ^ a))
        .collect();
    out.record("fault.timeline_ms", t.elapsed().as_secs_f64() / 64.0);
    let steps = vec![0.5; 600];
    for _ in 0..5 {
        let t = Instant::now();
        let stats = replay_campaign(&steps, 2.0, &spec.policy, |attempt| AttemptEnv {
            fatal_at: timelines[attempt % timelines.len()]
                .first_fatal()
                .map(|e| e.time),
            wait_seconds: 30.0,
            hourly_cost: 1.0,
        });
        out.record("fault.replay_ms", t.elapsed().as_secs_f64());
        black_box(stats);
    }
}

/// Setup, run, and modeled-engine layers on the workload's requests.
fn modeled(inp: &ReplayInputs, out: &mut Probe, need: &dyn Fn(&str) -> bool, tally: &mut Tally) {
    let modeled_reqs: Vec<RunRequest> = inp
        .requests
        .iter()
        .map(|r| RunRequest {
            fidelity: Fidelity::Modeled,
            resilience: None,
            ..r.clone()
        })
        .collect();
    if need("prep.scenario_ms") {
        prep::clear_cache();
        for r in &modeled_reqs {
            black_box(out.time("prep.scenario_ms", || prep::scenario_for(r)));
        }
    }
    // Timed, not counted as ops: `execute`'s only error is a platform
    // limit, which is a valid outcome of a modeled run.
    for r in &modeled_reqs {
        black_box(out.time("run.execute_modeled_ms", || execute(r)).is_ok());
    }
    if need("run.execute_numerical_ms") {
        let (ranks, axis) = inp.meshes.first().copied().unwrap_or((8, 3));
        let req = RunRequest {
            fidelity: Fidelity::Numerical,
            ..RunRequest::new(catalog::ec2(), App::paper_rd(STEPS), ranks, axis)
        };
        match out.time("run.execute_numerical_ms", || execute(&req)) {
            Ok(o) => tally.check(o.verification.is_some_and(|v| v.linf < 5e-6), || {
                "replayed numerical RD run misses the exact solution".to_string()
            }),
            Err(e) => tally.fail(format!("replayed numerical run refused: {e}")),
        }
    }
    let base = &inp.requests[0];
    let ec2 = catalog::ec2();
    let topo = ec2.topology(MODELED_RANKS);
    for _ in 0..3 {
        out.time("modeled.run_ms", || {
            black_box(hetero_hpc::modeled::run_modeled(
                &base.app,
                MODELED_RANKS,
                base.per_rank_axis,
                &topo,
                &ec2.network,
                ec2.compute,
                base.seed,
            ))
        });
    }
}

/// Plan layer: parse + resolve and instance keys of the plan document.
fn plan(doc: &str, out: &mut Probe, tally: &mut Tally) {
    for _ in 0..3 {
        match out.time("plan.parse_resolve_ms", || hetero_plan::load_str(doc)) {
            Ok(rp) => {
                let keys = out.time("plan.instance_keys_ms", || {
                    hetero_plan::exec::instance_keys(&rp)
                });
                tally.check(keys.is_ok(), || "replayed plan has no instance keys".into());
            }
            Err(e) => tally.fail(format!("replayed plan does not load: {e}")),
        }
    }
}

/// Canonical keys of every request.
fn canon(reqs: &[RunRequest], out: &mut Probe) {
    for r in reqs {
        out.time("canon.request_key_us", || black_box(request_key(r)));
        out.time("canon.prep_key_us", || black_box(prep_key(r)));
    }
}

/// Modeled variants of the workload's requests (at most this many) for
/// the service replay.
const SERVE_REPLAY_JOBS: usize = 24;

/// Service layer: each request submitted cold, then hot, on a fresh state
/// directory.
fn serve(reqs: &[RunRequest], out: &mut Probe, dir: &Path, tally: &mut Tally) {
    let dir = dir.join("replay-serve");
    let _ = std::fs::remove_dir_all(&dir);
    let handle = match ServeHandle::open(ServeConfig::new(&dir)) {
        Ok(h) => h,
        Err(e) => {
            tally.fail(format!("replay service does not open: {e}"));
            return;
        }
    };
    let jobs: Vec<RunRequest> = reqs
        .iter()
        .take(SERVE_REPLAY_JOBS)
        .map(|r| RunRequest {
            fidelity: Fidelity::Modeled,
            ..r.clone()
        })
        .collect();
    for _ in 0..2 {
        for r in &jobs {
            let id = out.time("serve.submit_us", || handle.submit(r));
            let done = id.and_then(|id| handle.wait(id));
            tally.check(done.is_ok(), || "replayed serve job failed".into());
        }
    }
    serve_counters(&handle.metrics(), out);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve.hit_ratio`, `serve.batch_size`, and `serve.coalesced` from a
/// service's counters.
pub fn serve_counters(m: &MetricsRegistry, out: &mut Probe) {
    let submitted = m.counter("serve.jobs.submitted").max(1.0);
    out.record("serve.hit_ratio", m.counter("serve.cache.hits") / submitted);
    let batches = m.counter("serve.batch.executions").max(1.0);
    out.record("serve.batch_size", m.counter("serve.batch.jobs") / batches);
    out.record("serve.coalesced", m.counter("serve.dedup.coalesced"));
}

/// Artifact store and journal: store, verified get, and journal append of
/// each request's modeled outcome.
fn store(reqs: &[RunRequest], out: &mut Probe, dir: &Path, tally: &mut Tally) {
    let dir = dir.join("replay-store");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut cache, mut journal) = match (
        ResultCache::open(&dir.join("cache")),
        std::fs::create_dir_all(&dir).and_then(|()| Journal::open(&dir.join("journal.log"), false)),
    ) {
        (Ok(c), Ok((j, _, _))) => (c, j),
        _ => {
            tally.fail("replay store does not open");
            return;
        }
    };
    for (id, r) in reqs.iter().take(SERVE_REPLAY_JOBS).enumerate() {
        let r = RunRequest {
            fidelity: Fidelity::Modeled,
            ..r.clone()
        };
        let key = request_key(&r);
        let outcome = match &r.resilience {
            Some(_) => execute_resilient(&r).map(JobOutcome::Resilient),
            None => execute(&r).map(JobOutcome::Completed),
        }
        .unwrap_or_else(JobOutcome::Rejected);
        let appended = out.time("serve.journal_append_us", || {
            journal.append_submit(id as u64, &key, &r)
        });
        let stored = out.time("serve.cache_store_us", || cache.store(&key, &outcome));
        let hit = out.time("serve.cache_get_us", || {
            matches!(cache.get(&key), hetero_serve::CacheLookup::Hit(_))
        });
        tally.check(appended.is_ok() && stored.is_ok() && hit, || {
            "replayed store round trip failed".into()
        });
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}
