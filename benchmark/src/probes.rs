//! H probes: the harness calling one public function of one layer, with the
//! workload's operand shapes, and timing it from outside.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use feir_dist::{connect_mesh, MeshOptions, RankComm, Transport};
use feir_pagemem::{PageRegistry, VectorId};
use feir_recovery::{BlockRecovery, CgRelations, RecoverableIteration};
use feir_solvers::SolveOptions;
use feir_sparse::blocking::BlockPartition;
use feir_sparse::{fused, vecops, SpmvBackend};
use feir_wire::Message;

use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{fresh_mesh_dir, Workload, RANKS, TOLERANCE};

/// Median seconds per call of `f`: batches sized to ≈200 µs, repeated until
/// `budget` is spent, at least three.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let batch = ((200e-6 / once).ceil() as usize).clamp(1, 100_000);
    let clock = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || clock.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    median(&samples)
}

/// A deterministic, non-constant vector.
fn ramp(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i % 17) as f64 * 0.0625).collect()
}

/// `sparse.*`: rank 0's row block through the kernels the rank loop calls.
pub fn sparse(w: &Workload, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
    let a = &w.problem.a;
    let own = w.problem.partition.range(0);
    let budget = w.scale.probe_budget;
    let op = SpmvBackend::select_rows(a, own.clone());
    let x = ramp(a.cols());
    let mut y = vec![0.0; own.len()];
    let spmv_s = rec.span("sparse.spmv", |_| {
        per_call(budget, || op.spmv(a, black_box(&x), black_box(&mut y)))
    });
    let spmv_dot_s = rec.span("sparse.spmv_dot", |_| {
        per_call(budget, || {
            black_box(op.spmv_dot(a, black_box(&x), black_box(&mut y)));
        })
    });
    let q = ramp(own.len());
    let mut g = ramp(own.len());
    let axpy_s = rec.span("sparse.axpy_norm2", |_| {
        per_call(budget, || {
            // ±α alternates so g stays bounded over millions of calls.
            black_box(fused::axpy_norm2(1e-3, black_box(&q), black_box(&mut g)));
            black_box(fused::axpy_norm2(-1e-3, black_box(&q), black_box(&mut g)));
        }) / 2.0
    });
    let dot_s = rec.span("sparse.dot", |_| {
        per_call(budget, || {
            black_box(vecops::dot(black_box(&q), black_box(&g)));
        })
    });

    // Computed, not measured, and cache-resident at these sizes. The byte
    // count is a fixed yardstick — a compact CSR sweep, 8 B value + 4 B index
    // per nonzero and 20 B per row — not what this build moves (its indices
    // are 8 bytes), so the figure is comparable across storage changes.
    let block_nnz = (a.row_ptr()[own.end] - a.row_ptr()[own.start]) as f64;
    let block_rows = own.len() as f64;
    let bytes = 12.0 * block_nnz + 20.0 * block_rows;
    // Whole-solve working set: the matrix once, b once, and per rank the
    // four protected vectors plus the full-length halo buffer.
    let (rows, nnz) = (a.rows() as f64, a.nnz() as f64);
    let working_set = 12.0 * nnz
        + 8.0 * (rows + 1.0)
        + 8.0 * rows
        + RANKS as f64 * 8.0 * (4.0 * block_rows + rows);
    out.extend([
        ("sparse.spmv_us", spmv_s * 1e6),
        ("sparse.spmv_dot_us", spmv_dot_s * 1e6),
        ("sparse.axpy_norm2_us", axpy_s * 1e6),
        ("sparse.dot_us", dot_s * 1e6),
        ("sparse.spmv_gbs_computed", bytes / spmv_s * 1e-9),
        ("sparse.spmv_flops_per_byte", 2.0 * block_nnz / bytes),
        ("sparse.working_set_mb", working_set * 1e-6),
    ]);
}

/// `solvers.serial_solve_s`: the plain single-thread CG on the same system.
pub fn serial_solve(w: &Workload, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
    let options = SolveOptions {
        tolerance: TOLERANCE,
        record_history: false,
        parallel: false,
        ..SolveOptions::default()
    };
    let clock = Instant::now();
    let mut samples = Vec::new();
    rec.span("solvers.cg", |_| {
        while samples.is_empty() || (samples.len() < 3 && clock.elapsed() < w.scale.probe_budget) {
            let result = feir_solvers::cg(&w.problem.a, &w.problem.b, None, &options);
            samples.push(result.elapsed.as_secs_f64());
        }
    });
    out.push(("solvers.serial_solve_s", median(&samples)));
}

/// `pagemem.*`: one rank's registry, as the rank loop registers it.
pub fn pagemem(w: &Workload, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
    let own = w.problem.partition.range(0).len();
    let pages = own.div_ceil(w.scale.page_doubles);
    let registry = PageRegistry::new();
    let ids: Vec<VectorId> = ["x", "g", "d", "q"]
        .iter()
        .map(|name| registry.register(*name, pages))
        .collect();
    let scrub_s = rec.span("pagemem.lost_pages", |_| {
        per_call(w.scale.probe_budget, || {
            for id in &ids {
                black_box(registry.lost_pages(*id));
            }
        })
    });
    let cycle_s = rec.span("pagemem.inject_mark", |_| {
        per_call(w.scale.probe_budget, || {
            registry.inject(ids[0], 0);
            black_box(registry.on_access(ids[0], 0));
            registry.mark_recovered(ids[0], 0);
        })
    });
    out.extend([
        ("pagemem.scrub_us", scrub_s * 1e6),
        ("pagemem.inject_mark_us", cycle_s * 1e6),
    ]);
}

/// `recovery.*_us`: one page through each relation the rank loop repairs
/// with, on the workload's matrix, and the all-blocks factorization on the
/// smallest two-page member of the operator family.
pub fn recovery(w: &Workload, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
    let a = &w.problem.a;
    let b = &w.problem.b;
    let budget = w.scale.probe_budget;
    let page = w.scale.page_doubles.min(w.problem.partition.range(0).len());
    let rows: Vec<usize> = (0..page).collect();
    let relations = CgRelations::new(a, b);
    let view = ramp(a.cols());
    let at_rows = ramp(page);
    let iterate_s = rec.span("recovery.reconstruct_iterate", |_| {
        per_call(budget, || {
            black_box(relations.reconstruct_iterate(&rows, &at_rows, black_box(&view)));
        })
    });
    let direction_s = rec.span("recovery.reconstruct_direction", |_| {
        per_call(budget, || {
            black_box(relations.reconstruct_direction(&rows, &at_rows, black_box(&view)));
        })
    });
    let mut residual = vec![0.0; page];
    let residual_s = rec.span("recovery.residual_rows", |_| {
        per_call(budget, || {
            relations.residual_rows(0..page, black_box(&view), black_box(&mut residual));
        })
    });
    let small = w.operator.two_pages(w.scale.page_doubles).build();
    let partition = BlockPartition::new(small.rows(), w.scale.page_doubles);
    let factor_s = rec.span("recovery.BlockRecovery::new", |_| {
        per_call(budget, || {
            black_box(BlockRecovery::new(black_box(&small), partition, true));
        })
    });
    out.extend([
        (
            "recovery.factor_us",
            factor_s / partition.num_blocks() as f64 * 1e6,
        ),
        ("recovery.iterate_page_us", iterate_s * 1e6),
        ("recovery.direction_page_us", direction_s * 1e6),
        ("recovery.residual_page_us", residual_s * 1e6),
    ]);
}

/// Seconds per operation of the four collectives, measured on rank 0 while
/// one harness thread per rank drives its endpoint in lockstep:
/// `[halo, allreduce, allreduce_vec, split allreduce]`.
fn collectives(comms: Vec<RankComm>, n: usize, batches: usize) -> [f64; 4] {
    const OPS_PER_BATCH: usize = 200;
    let start = Barrier::new(comms.len());
    let mut result = [0.0; 4];
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let start = &start;
                scope.spawn(move || {
                    let mut full = vec![comm.rank() as f64; n];
                    type Op<'a> = &'a dyn Fn(&RankComm, &mut [f64]);
                    let ops: [Op; 4] = [
                        &|c, full| c.exchange_halo(full).expect("halo"),
                        &|c, _| {
                            black_box(c.allreduce_sum(1.0).expect("allreduce"));
                        },
                        &|c, _| {
                            black_box(c.allreduce_vec(vec![1.0; 3]).expect("allreduce_vec"));
                        },
                        &|c, _| {
                            let pending = c.start_allreduce(1.0).expect("post");
                            black_box(pending.finish().expect("finish"));
                        },
                    ];
                    start.wait();
                    ops.map(|op| {
                        let mut samples = Vec::with_capacity(batches);
                        for _ in 0..batches {
                            let t = Instant::now();
                            for _ in 0..OPS_PER_BATCH {
                                op(&comm, &mut full);
                            }
                            samples.push(t.elapsed().as_secs_f64() / OPS_PER_BATCH as f64);
                        }
                        median(&samples)
                    })
                })
            })
            .collect();
        for (rank, handle) in handles.into_iter().enumerate() {
            let times = handle.join().expect("collective probe thread panicked");
            if rank == 0 {
                result = times;
            }
        }
    });
    result
}

/// `dist.*_us`: the collectives over in-process channels.
pub fn dist(w: &Workload, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
    let comms = RankComm::for_ranks(&w.problem.plan, RANKS);
    let n = w.problem.a.cols();
    let [halo, allreduce, vec, split] = rec.span("dist.collectives", |_| {
        collectives(comms, n, w.scale.comm_batches)
    });
    out.extend([
        ("dist.halo_us", halo * 1e6),
        ("dist.allreduce_us", allreduce * 1e6),
        ("dist.allreduce_vec_us", vec * 1e6),
        ("dist.split_allreduce_us", split * 1e6),
    ]);
}

/// `process.uds_allreduce_us`: the same allreduce between the same two
/// harness threads, over a 2-endpoint Unix-socket mesh instead of channels.
pub fn uds_allreduce(w: &Workload, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
    let dir = fresh_mesh_dir();
    std::fs::create_dir_all(&dir).expect("cannot create the rendezvous directory under out/");
    let transport = Transport::Uds { dir: dir.clone() };
    let options = MeshOptions::default();
    let plan = &w.problem.plan;
    let comms: Vec<RankComm> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                let (transport, options) = (&transport, &options);
                scope.spawn(move || connect_mesh(rank, RANKS, transport, options))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let endpoint = h
                    .join()
                    .expect("mesh thread panicked")
                    .expect("UDS mesh between harness threads");
                RankComm::over_process(plan, endpoint)
            })
            .collect()
    });
    let n = w.problem.a.cols();
    let times = rec.span("process.uds_collectives", |_| {
        collectives(comms, n, w.scale.comm_batches)
    });
    let _ = std::fs::remove_dir_all(&dir);
    out.push(("process.uds_allreduce_us", times[1] * 1e6));
}

/// `wire.*_ns`: framing of the halo and scalar messages the solve sends.
pub fn wire(w: &Workload, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
    let budget = w.scale.probe_budget;
    let halo_len = w
        .problem
        .plan
        .sends_of(0)
        .values()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    let halo = Message::Halo {
        values: ramp(halo_len),
    };
    let scalar = Message::GatherScalar {
        rank: 1,
        value: 0.5,
    };
    let mut frame = Vec::new();
    let encode_halo = rec.span("wire.encode_into(halo)", |_| {
        per_call(budget, || {
            frame.clear();
            black_box(&halo).encode_into(black_box(&mut frame));
        })
    });
    let decode_halo = rec.span("wire.decode_frame_buf(halo)", |_| {
        per_call(budget, || {
            black_box(feir_wire::decode_frame_buf(black_box(&frame)).expect("own frame decodes"));
        })
    });
    let halo_frame_bytes = frame.len();
    let encode_scalar = rec.span("wire.encode_into(scalar)", |_| {
        per_call(budget, || {
            frame.clear();
            black_box(&scalar).encode_into(black_box(&mut frame));
        })
    });
    out.extend([
        ("wire.encode_halo_ns", encode_halo * 1e9),
        ("wire.decode_halo_ns", decode_halo * 1e9),
        ("wire.encode_scalar_ns", encode_scalar * 1e9),
        ("wire.halo_frame_bytes", halo_frame_bytes as f64),
    ]);
}
