//! Rank worker executable of the multi-process transport: one instance per
//! rank, spawned by [`feir_dist::process::spawn_workers`], reading one
//! `WorkerConfig` frame on stdin and reporting `feir-wire` frames on stdout.
//! See [`feir_dist::process`] for the protocol.

fn main() -> std::process::ExitCode {
    feir_dist::process::worker_main()
}
