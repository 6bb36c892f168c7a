//! Multi-process parity suite: the rank-aware drivers must produce
//! bit-for-bit identical deterministic outcomes (parcel counts, result
//! checksums accumulated in send order) across all three deployment
//! modes — in-process Sim, in-process TCP, and N OS processes connected
//! by the rank handshake — and the launcher must propagate worker
//! failures instead of hanging.
//!
//! The N-process cases shell out to the `repro` binary (`launch` /
//! `worker` subcommands) of this package, which cargo builds before it
//! runs the suite (`CARGO_BIN_EXE_repro`). Timing-dependent
//! quantities (coalesced message counts) are deliberately *not* parity
//! quantities — only shape properties are asserted for those.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use rpx::{BootstrapMode, Runtime, RuntimeConfig, ShmTuning, Topology, TransportKind};
use rpx_apps::{
    run_parquet_rank, run_toy_rank, MultiprocParquetConfig, MultiprocToyConfig, RankStats,
};

/// Reserve `n` distinct loopback addresses the same way the launcher
/// does: bind ephemeral listeners, record their addresses, drop them.
fn reserve_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

/// The worker's toy configuration (`repro worker toy` at quick scale) —
/// in-process comparison runs must drive the exact same traffic.
fn worker_toy_cfg() -> MultiprocToyConfig {
    MultiprocToyConfig {
        numparcels: 2_000,
        ..MultiprocToyConfig::default()
    }
}

/// The `repro` binary cargo built for this test run.
fn repro_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_repro"))
}

/// Run `repro launch` against a private counters dir; returns the exit
/// code, elapsed wall time, and the aggregate report text (if written).
fn run_launch(tag: &str, args: &[&str], env: &[(&str, &str)]) -> (i32, Duration, Option<String>) {
    let bin = repro_bin();
    let dir = std::env::temp_dir().join(format!("rpx-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let mut cmd = Command::new(bin);
    cmd.arg("launch").args(args).env("RPX_COUNTERS_DIR", &dir);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let status = cmd.status().expect("spawn repro launch");
    let elapsed = start.elapsed();
    let aggregate = std::fs::read_to_string(dir.join("aggregate.json")).ok();
    let _ = std::fs::remove_dir_all(&dir);
    (status.code().unwrap_or(-1), elapsed, aggregate)
}

/// Pull the single-sample value of `path` for `rank` out of an
/// aggregate counter report (`{"rank":R,"counters":{…"path":"…",
/// "samples":[[t,v]]…}}` — our own writers' format).
fn counter_value(aggregate: &str, rank: u32, path: &str) -> Option<f64> {
    let rank_key = format!("{{\"rank\":{rank},\"counters\":");
    let at = aggregate.find(&rank_key)? + rank_key.len();
    let section = &aggregate[at..];
    let end = section.find("{\"rank\":").unwrap_or(section.len());
    let section = &section[..end];
    let path_key = format!("\"path\":\"{path}\",\"samples\":[[");
    let at = section.find(&path_key)? + path_key.len();
    let cell = &section[at..section[at..].find("]]").map(|e| at + e)?];
    cell.split(',').nth(1)?.trim().parse().ok()
}

fn toy_cfg(numparcels: usize) -> MultiprocToyConfig {
    MultiprocToyConfig {
        numparcels,
        phases: 2,
        control_timeout: Duration::from_secs(20),
        ..MultiprocToyConfig::default()
    }
}

/// Boot one rank of an address-book cluster and run the toy driver.
fn toy_rank_thread(
    rank: u32,
    book: Vec<SocketAddr>,
    numparcels: usize,
) -> std::thread::JoinHandle<Vec<RankStats>> {
    std::thread::spawn(move || {
        let rt = Runtime::try_new(RuntimeConfig {
            transport: TransportKind::TcpLoopback,
            reliability: Some(Default::default()),
            topology: Some(Topology {
                rank,
                num_localities: book.len() as u32,
                bootstrap: BootstrapMode::AddressBook {
                    hosts: vec![None; book.len()],
                    addrs: book,
                },
            }),
            ..RuntimeConfig::default()
        })
        .expect("rank boots");
        let report = run_toy_rank(&rt, &toy_cfg(numparcels)).expect("toy run");
        rt.shutdown();
        report.per_rank
    })
}

/// Regression: the address-book path has no rendezvous round-trip, so a
/// fast rank can start control traffic before a slow peer has bound its
/// book entry. The control plane must ride that out, not hang.
#[test]
fn address_book_cluster_boots_and_runs_in_process() {
    let book = reserve_addrs(2);
    let h0 = toy_rank_thread(0, book.clone(), 100);
    // Stagger rank 1 so rank 0's reghash races a not-yet-bound listener.
    std::thread::sleep(Duration::from_millis(100));
    let h1 = toy_rank_thread(1, book, 100);
    let r0 = h0.join().expect("rank 0 thread");
    let r1 = h1.join().expect("rank 1 thread");
    assert_eq!(r0.len(), 1);
    assert_eq!(r1.len(), 1);
    assert_eq!(r0[0].parcels_sent, 200);
    assert_eq!(r1[0].parcels_sent, 200);
    assert_eq!(
        r0[0].checksum, r1[0].checksum,
        "symmetric ring: both ranks accumulate the same checksum"
    );
}

/// Fig. 5's premise, mode-independent: same parcels and checksums on the
/// Sim fabric, on in-process TCP, and on the shared-memory backend, with
/// coalescing visibly reducing message counts in all three (the counts
/// themselves are timing-dependent and not compared across modes).
#[test]
fn toy_outcomes_identical_across_sim_tcp_and_shm_in_process() {
    let run = |transport: TransportKind| {
        let rt = Runtime::new(RuntimeConfig {
            transport,
            ..RuntimeConfig::default()
        });
        let report = run_toy_rank(&rt, &worker_toy_cfg()).expect("toy run");
        rt.shutdown();
        report
    };
    let sim = run(TransportKind::default());
    let tcp = run(TransportKind::TcpLoopback);
    let shm = run(TransportKind::Shm(ShmTuning::default()));
    assert_eq!(
        sim.per_rank, tcp.per_rank,
        "sim/tcp outcomes match bit-for-bit"
    );
    assert_eq!(
        sim.per_rank, shm.per_rank,
        "sim/shm outcomes match bit-for-bit"
    );
    let total_parcels: u64 = sim.per_rank.iter().map(|s| s.parcels_sent).sum();
    for (mode, report) in [("sim", &sim), ("tcp", &tcp), ("shm", &shm)] {
        assert!(
            report.messages_counted > 0 && report.messages_counted < total_parcels,
            "{mode}: coalescing reduced {total_parcels} parcels to fewer messages \
             (got {})",
            report.messages_counted
        );
    }
}

/// The tentpole parity claim: a 2-process toy run over real sockets
/// reports, through its per-rank counter dumps, exactly the parcel
/// counts and bit-for-bit checksums of the same workload run
/// all-in-one on the Sim fabric.
#[test]
fn toy_parity_across_process_boundary() {
    let rt = Runtime::new(RuntimeConfig::default());
    let reference = run_toy_rank(&rt, &worker_toy_cfg()).expect("reference run");
    rt.shutdown();

    let (code, _, aggregate) =
        run_launch("toy", &["-n", "2", "--timeout-s", "90", "--", "toy"], &[]);
    assert_eq!(code, 0, "launch -n 2 -- toy exits cleanly");
    let aggregate = aggregate.expect("aggregate report written");
    for s in &reference.per_rank {
        let parcels = counter_value(&aggregate, s.rank, "/app/parcels-sent")
            .unwrap_or_else(|| panic!("rank {} parcels counter in aggregate", s.rank));
        let re = counter_value(&aggregate, s.rank, "/app/checksum-re").expect("checksum-re");
        let im = counter_value(&aggregate, s.rank, "/app/checksum-im").expect("checksum-im");
        assert_eq!(
            parcels as u64, s.parcels_sent,
            "rank {} parcel count",
            s.rank
        );
        assert_eq!(re, s.checksum.re, "rank {} checksum.re bit-for-bit", s.rank);
        assert_eq!(im, s.checksum.im, "rank {} checksum.im bit-for-bit", s.rank);
        // Multi-process dumps also carry the process-level counters.
        assert_eq!(
            counter_value(&aggregate, s.rank, "/process/rank"),
            Some(s.rank as f64)
        );
        assert_eq!(
            counter_value(&aggregate, s.rank, "/process/peers-connected"),
            Some(1.0)
        );
    }
}

/// Fig. 6's workload across the process boundary: the parquet proxy's
/// deterministic per-rank outcome matches the all-in-one reference.
#[test]
fn parquet_parity_across_process_boundary() {
    let cfg = MultiprocParquetConfig::default();
    let rt = Runtime::new(RuntimeConfig::default());
    let reference = run_parquet_rank(&rt, &cfg).expect("reference run");
    rt.shutdown();

    let (code, _, aggregate) = run_launch(
        "parquet",
        &["-n", "2", "--timeout-s", "90", "--", "parquet"],
        &[],
    );
    assert_eq!(code, 0, "launch -n 2 -- parquet exits cleanly");
    let aggregate = aggregate.expect("aggregate report written");
    let expected = (8 * cfg.nc * cfg.nc / 2 * cfg.iterations) as u64;
    for s in &reference.per_rank {
        assert_eq!(s.parcels_sent, expected, "reference parcel count");
        let parcels = counter_value(&aggregate, s.rank, "/app/parcels-sent").expect("parcels");
        let re = counter_value(&aggregate, s.rank, "/app/checksum-re").expect("checksum-re");
        assert_eq!(
            parcels as u64, s.parcels_sent,
            "rank {} parcel count",
            s.rank
        );
        assert_eq!(re, s.checksum.re, "rank {} checksum.re bit-for-bit", s.rank);
    }
}

/// The shm tentpole parity claim: the same 2-process toy run, once over
/// shared-memory rings (`--expect-shm` proves no frame crossed a socket)
/// and once over forced TCP, reports bit-for-bit identical checksums —
/// which also match the all-in-one Sim reference. Backends are
/// observationally indistinguishable above the transport seam.
#[test]
fn toy_parity_across_shm_and_tcp_process_runs() {
    let rt = Runtime::new(RuntimeConfig::default());
    let reference = run_toy_rank(&rt, &worker_toy_cfg()).expect("reference run");
    rt.shutdown();

    let (shm_code, _, shm_agg) = run_launch(
        "shm",
        &["-n", "2", "--timeout-s", "90", "--expect-shm", "--", "toy"],
        &[("RPX_TRANSPORT", "shm")],
    );
    assert_eq!(shm_code, 0, "shm launch exits cleanly with --expect-shm");
    let (tcp_code, _, tcp_agg) = run_launch(
        "tcpforce",
        &["-n", "2", "--timeout-s", "90", "--", "toy"],
        &[("RPX_TRANSPORT", "tcp")],
    );
    assert_eq!(tcp_code, 0, "forced-tcp launch exits cleanly");
    let shm_agg = shm_agg.expect("shm aggregate written");
    let tcp_agg = tcp_agg.expect("tcp aggregate written");
    for s in &reference.per_rank {
        for (mode, agg) in [("shm", &shm_agg), ("tcp", &tcp_agg)] {
            let re = counter_value(agg, s.rank, "/app/checksum-re")
                .unwrap_or_else(|| panic!("{mode} rank {} checksum-re", s.rank));
            let im = counter_value(agg, s.rank, "/app/checksum-im")
                .unwrap_or_else(|| panic!("{mode} rank {} checksum-im", s.rank));
            assert_eq!(re, s.checksum.re, "{mode} rank {} checksum.re", s.rank);
            assert_eq!(im, s.checksum.im, "{mode} rank {} checksum.im", s.rank);
        }
    }
    // The routing really differed: shm run moved frames over rings, the
    // forced-tcp run over sockets.
    assert!(
        counter_value(&shm_agg, 0, "/network/shm-messages").unwrap_or(0.0) > 0.0,
        "shm run recorded ring deliveries"
    );
    assert_eq!(
        counter_value(&tcp_agg, 0, "/network/shm-messages").unwrap_or(-1.0),
        0.0,
        "forced-tcp run never touched a ring"
    );
}

/// The chaos suite holds across real process boundaries: with the
/// outbound wire dropping/corrupting/duplicating/reordering frames, the
/// reliability layer still delivers every parcel exactly once (the
/// workers verify counts internally and exit non-zero on any loss).
/// Workers default to shm routing, so the faulty wire here IS the
/// shared-memory path.
#[test]
fn chaos_toy_survives_process_boundaries() {
    let (code, _, _) = run_launch(
        "chaos",
        &["-n", "2", "--timeout-s", "90", "--", "chaos"],
        &[],
    );
    assert_eq!(code, 0, "chaos workers verified exact delivery");
}

/// Same chaos invariant with shm routing explicitly disabled: the
/// reliability layer must not depend on which wire carries the faults.
#[test]
fn chaos_toy_survives_process_boundaries_over_tcp() {
    let (code, _, _) = run_launch(
        "chaos-tcp",
        &["-n", "2", "--timeout-s", "90", "--", "chaos"],
        &[("RPX_TRANSPORT", "tcp")],
    );
    assert_eq!(code, 0, "chaos workers verified exact delivery over tcp");
}

/// Killing one rank mid-run must surface as a non-zero launcher exit
/// within the retransmission give-up window — never a silent hang until
/// the wall-clock ceiling. Full scale keeps the run long enough that
/// the 300 ms death timer lands mid-phase with parcels in flight.
#[test]
fn killed_rank_fails_fast_without_hanging() {
    let (code, elapsed, _) = run_launch(
        "kill",
        &["-n", "2", "--timeout-s", "90", "--", "toy"],
        &[
            ("RPX_REPRO_SCALE", "full"),
            ("RPX_TEST_DIE_RANK", "1"),
            ("RPX_TEST_DIE_AFTER_MS", "300"),
        ],
    );
    assert_ne!(code, 0, "a dead rank is a failed launch");
    assert_ne!(code, 124, "failure must be detected, not the deadline");
    assert!(
        elapsed < Duration::from_secs(60),
        "survivors failed fast (took {elapsed:?}), not by timeout"
    );
}

/// The runtime-level half of the worker-crash fix, with no launcher to
/// clean up: a surviving worker whose peer vanished mid-run must exit
/// non-zero on its own once the reliable layer gives up and breaks the
/// pending result promises — never hang waiting for replies.
#[test]
fn survivor_exits_nonzero_without_launcher_intervention() {
    let bin = repro_bin();
    let book = reserve_addrs(2)
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let spawn = |rank: u32| {
        let mut cmd = Command::new(&bin);
        cmd.args(["worker", "toy"])
            .env("RPX_RANK", rank.to_string())
            .env("RPX_NUM_LOCALITIES", "2")
            .env("RPX_ADDRESS_BOOK", &book)
            .env("RPX_REPRO_SCALE", "full")
            .env("RPX_TEST_DIE_RANK", "1")
            .env("RPX_TEST_DIE_AFTER_MS", "300")
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        cmd.spawn().expect("spawn worker")
    };
    let mut survivor = spawn(0);
    let mut victim = spawn(1);
    let deadline = Instant::now() + Duration::from_secs(60);
    let code = loop {
        if let Some(status) = survivor.try_wait().expect("poll survivor") {
            break status.code().unwrap_or(-1);
        }
        if Instant::now() >= deadline {
            let _ = survivor.kill();
            let _ = survivor.wait();
            let _ = victim.kill();
            let _ = victim.wait();
            panic!("survivor hung for 60 s after its peer died");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = victim.wait();
    assert_ne!(
        code, 0,
        "survivor reported the broken deliveries, exit {code}"
    );
}
