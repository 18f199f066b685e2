//! The `nice-dist` worker process, built alongside the benchmark so the
//! `dist-chain` workload spawns a worker compiled by the same profile.

fn main() -> std::io::Result<()> {
    nice_dist::worker_main()
}
