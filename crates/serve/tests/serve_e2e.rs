//! End-to-end tests: a real daemon on a loopback ephemeral port,
//! driven through the real wire protocol.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use tlb_json::Value;
use tlb_serve::{Client, ExecutorConfig, Server, SweepResponse};
use tlb_sweep::{run_sweep, Scenario, SweepOptions};

fn scenario_json(name: &str, seeds: &[u64]) -> Value {
    let seed_list: Vec<Value> = seeds.iter().map(|&s| s.into()).collect();
    Value::object(vec![
        ("schema_version", 1i64.into()),
        ("name", name.into()),
        ("app", "synthetic".into()),
        ("nodes", 2usize.into()),
        ("iterations", 2usize.into()),
        (
            "axes",
            Value::object(vec![
                ("degree", Value::Array(vec![1usize.into(), 2usize.into()])),
                (
                    "policy",
                    Value::Array(vec!["baseline".into(), "lewi+drom-global".into()]),
                ),
                ("seed", Value::Array(seed_list)),
            ]),
        ),
    ])
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tlb_serve_e2e_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(cache_dir: Option<PathBuf>, jobs: usize, queue_bound: usize) -> Server {
    Server::start(
        "127.0.0.1:0",
        ExecutorConfig {
            jobs,
            queue_bound,
            cache_dir,
        },
    )
    .expect("server start")
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("counters")
        .get("counters")
        .get(name)
        .as_u64()
        .unwrap_or(0)
}

/// Sorted (file name, bytes) of every cache entry; fails on stray
/// temporary files.
fn cache_entries(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry"))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            assert!(
                name.ends_with(".json"),
                "unexpected cache file (leaked tmp?): {name}"
            );
            (name, std::fs::read(e.path()).expect("cache entry bytes"))
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn served_report_is_bitwise_identical_to_offline_sweep() {
    let cache = temp_dir("identical");
    let server = start(Some(cache.clone()), 2, 64);
    let scenario_json = scenario_json("serve-e2e", &[1]);

    // First a scenario no run can survive: one of its points used to
    // panic in the simulator and take the dispatcher thread with it, so
    // the daemon kept answering `ping` while every later sweep hung
    // after its ack. It is refused at admission, clause named.
    let mut hostile = scenario_json.clone();
    if let Value::Object(fields) = &mut hostile {
        let spec = "straggler@0.1,node=0,slow=inf";
        fields.push(("faults".to_string(), spec.into()));
    }
    let mut first = Client::connect(server.local_addr()).unwrap();
    match first.sweep(&hostile).unwrap() {
        SweepResponse::Error(message) => assert!(message.contains("straggler@0.1"), "{message}"),
        other => panic!("expected an error reply, got {other:?}"),
    }

    // Then a healthy sweep on a second connection.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = client.sweep(&scenario_json).unwrap();
    let (ack, points, report) = match response {
        SweepResponse::Completed {
            ack,
            points,
            report,
        } => (ack, points, report),
        other => panic!("expected completion, got {other:?}"),
    };
    assert_eq!(ack.get("points_total").as_usize(), Some(4));
    assert_eq!(points.len(), 4);

    // Offline reference, fresh cache dir, serial.
    let scenario = Scenario::from_json(&scenario_json).unwrap();
    let offline_cache = temp_dir("identical_offline");
    let offline = run_sweep(
        &scenario,
        &SweepOptions {
            jobs: 1,
            resume: false,
            cache_dir: Some(offline_cache.clone()),
        },
    )
    .unwrap();
    assert_eq!(
        report.to_string_compact(),
        offline.report.to_string_compact(),
        "served report differs from offline sweep"
    );
    // And the on-disk caches are bitwise identical too.
    assert_eq!(cache_entries(&cache), cache_entries(&offline_cache));

    client.shutdown().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&offline_cache);
}

#[test]
fn warm_cache_replay_executes_nothing() {
    let cache = temp_dir("replay");
    let server = start(Some(cache.clone()), 2, 64);
    let scenario = scenario_json("serve-replay", &[2]);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let first = client.sweep(&scenario).unwrap();
    let first_report = match &first {
        SweepResponse::Completed { report, .. } => report.to_string_compact(),
        other => panic!("expected completion, got {other:?}"),
    };
    let executed_after_first = counter(&client.stats().unwrap(), "serve.points_executed");
    assert_eq!(executed_after_first, 4);

    let second = client.sweep(&scenario).unwrap();
    match &second {
        SweepResponse::Completed { ack, report, .. } => {
            assert_eq!(ack.get("cache_hits").as_usize(), Some(4));
            assert_eq!(ack.get("enqueued").as_usize(), Some(0));
            assert_eq!(report.to_string_compact(), first_report);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    let executed_after_second = counter(&client.stats().unwrap(), "serve.points_executed");
    assert_eq!(
        executed_after_second, executed_after_first,
        "warm replay executed simulations"
    );

    client.shutdown().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn concurrent_identical_requests_execute_each_point_once() {
    let cache = temp_dir("dedup");
    let server = start(Some(cache.clone()), 2, 64);
    let scenario = scenario_json("serve-dedup", &[3, 4]);
    let addr = server.local_addr();

    let reports: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let scenario = scenario.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    match client.sweep(&scenario).unwrap() {
                        SweepResponse::Completed { points, report, .. } => {
                            // Every subscriber sees every point exactly once.
                            let mut indices: Vec<usize> = points
                                .iter()
                                .map(|p| p.get("index").as_usize().unwrap())
                                .collect();
                            indices.sort_unstable();
                            assert_eq!(indices, (0..8).collect::<Vec<_>>());
                            report.to_string_compact()
                        }
                        other => panic!("expected completion, got {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(reports.windows(2).all(|w| w[0] == w[1]));

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    // 8 distinct points across 4 identical concurrent requests: each
    // point ran exactly once; the other 24 deliveries were dedup or
    // cache hits.
    assert_eq!(counter(&stats, "serve.points_executed"), 8);
    assert_eq!(
        counter(&stats, "serve.dedup_hits") + counter(&stats, "serve.cache_hits"),
        24
    );

    client.shutdown().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn saturated_queue_sheds_with_retry_after() {
    // queue_bound 0: any request with fresh points is shed.
    let server = start(None, 1, 0);
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.sweep(&scenario_json("serve-shed", &[5])).unwrap() {
        SweepResponse::Shed(reply) => {
            assert!(reply.get("retry_after_ms").as_u64().unwrap() >= 10);
            assert_eq!(reply.get("queue_bound").as_usize(), Some(0));
            assert_eq!(reply.get("draining").as_bool(), Some(false));
        }
        other => panic!("expected shed, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(counter(&stats, "serve.shed"), 1);
    assert_eq!(counter(&stats, "serve.points_executed"), 0);

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn drain_on_shutdown_completes_admitted_work_and_flushes_cache() {
    let cache = temp_dir("drain");
    let server = start(Some(cache.clone()), 2, 64);
    let addr = server.local_addr();
    let scenario = scenario_json("serve-drain", &[6]);

    let sweeper = {
        let scenario = scenario.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            match client.sweep(&scenario).unwrap() {
                SweepResponse::Completed { points, .. } => points.len(),
                other => panic!("expected completion, got {other:?}"),
            }
        })
    };
    // Shut down from a second connection while the sweep is in
    // flight: wait for it to be *admitted* (serve.sweeps counter),
    // then drain. The ack must wait for the drain, and the sweeping
    // client must still get every reply.
    let mut killer = Client::connect(addr).unwrap();
    while counter(&killer.stats().unwrap(), "serve.sweeps") < 1 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let ack = killer.shutdown().unwrap();
    assert_eq!(ack.get("type").as_str(), Some("shutdown_ack"));
    assert_eq!(sweeper.join().unwrap(), 4);
    server.join();

    // The drained cache holds exactly the scenario's points — no lost
    // entries, no duplicates, no temporaries — and matches an offline
    // serial sweep byte for byte.
    let offline_cache = temp_dir("drain_offline");
    let parsed = Scenario::from_json(&scenario).unwrap();
    run_sweep(
        &parsed,
        &SweepOptions {
            jobs: 1,
            resume: false,
            cache_dir: Some(offline_cache.clone()),
        },
    )
    .unwrap();
    let drained = cache_entries(&cache);
    assert_eq!(drained.len(), 4);
    assert_eq!(drained, cache_entries(&offline_cache));
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&offline_cache);
}

#[test]
fn requests_after_shutdown_are_shed_as_draining() {
    let server = start(None, 1, 64);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut other = Client::connect(server.local_addr()).unwrap();
    client.shutdown().unwrap();
    match other.sweep(&scenario_json("serve-late", &[7])).unwrap() {
        SweepResponse::Shed(reply) => {
            assert_eq!(reply.get("draining").as_bool(), Some(true));
        }
        other => panic!("expected draining shed, got {other:?}"),
    }
    drop(other);
    server.join();
}

#[test]
fn overlapping_concurrent_sweeps_stress_cache_consistency() {
    // The concurrent-cache stress: N clients submit *overlapping* (not
    // identical) point sets at once. Every subscriber must see each of
    // its own points exactly once, and the surviving cache directory
    // must be bitwise identical to a serial offline run of the union
    // scenario.
    let cache = temp_dir("stress");
    let server = start(Some(cache.clone()), 4, 256);
    let addr = server.local_addr();
    // Overlapping windows over seeds 10..=14: client i sweeps seeds
    // [10+i, 10+i+1].
    let union_seeds: Vec<u64> = (10..=14).collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4usize)
            .map(|i| {
                s.spawn(move || {
                    let seeds: Vec<u64> = (10 + i as u64..10 + i as u64 + 2).collect();
                    let scenario = scenario_json("serve-stress", &seeds);
                    // 2 degrees × 2 policies per seed.
                    let expected = 4 * seeds.len();
                    let mut client = Client::connect(addr).unwrap();
                    match client.sweep(&scenario).unwrap() {
                        SweepResponse::Completed { points, .. } => {
                            let mut indices: Vec<usize> = points
                                .iter()
                                .map(|p| p.get("index").as_usize().unwrap())
                                .collect();
                            indices.sort_unstable();
                            assert_eq!(
                                indices,
                                (0..expected).collect::<Vec<_>>(),
                                "client {i} missed or repeated points"
                            );
                        }
                        other => panic!("expected completion, got {other:?}"),
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    // 5 distinct seeds × 4 grid points each: at most one execution per
    // distinct point, every other delivery deduped or cached.
    assert_eq!(counter(&stats, "serve.points_executed"), 20);
    client.shutdown().unwrap();
    server.join();

    let offline_cache = temp_dir("stress_offline");
    let union = Scenario::from_json(&scenario_json("serve-stress", &union_seeds)).unwrap();
    run_sweep(
        &union,
        &SweepOptions {
            jobs: 1,
            resume: false,
            cache_dir: Some(offline_cache.clone()),
        },
    )
    .unwrap();
    assert_eq!(cache_entries(&cache), cache_entries(&offline_cache));
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&offline_cache);
}

/// A one-point synthetic scenario on `nodes` nodes.
fn one_point(name: &str, nodes: usize, iterations: usize) -> Value {
    Value::object(vec![
        ("schema_version", 1i64.into()),
        ("name", name.into()),
        ("app", "synthetic".into()),
        ("nodes", nodes.into()),
        ("iterations", iterations.into()),
    ])
}

/// Each lane pops the next point as soon as it frees up: a cheap point
/// admitted while a slow one runs takes the other lane at once, so its
/// report arrives while the slow request is still pending. The
/// saturation `/stats` reports counts the executing point.
#[test]
fn a_cheap_point_is_not_held_behind_a_running_one() {
    let server = start(None, 2, 64);
    let addr = server.local_addr();
    let slow_done = Arc::new(AtomicBool::new(false));
    let slow = {
        let slow_done = Arc::clone(&slow_done);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let response = client.sweep(&one_point("serve-slow", 16, 10)).unwrap();
            slow_done.store(true, Ordering::Release);
            matches!(response, SweepResponse::Completed { .. })
        })
    };
    let mut watcher = Client::connect(addr).unwrap();
    let executing = loop {
        let stats = watcher.stats().unwrap();
        let queued = stats.get("queue_depth").as_usize();
        if stats.get("inflight").as_usize() == Some(1) && queued == Some(0) {
            break stats;
        }
        assert!(
            !slow_done.load(Ordering::Acquire),
            "never saw the slow point run"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    let saturation = executing.get("pool_saturation").as_f64().unwrap();
    assert!(
        saturation > 0.0,
        "saturation {saturation} while a point runs"
    );

    let mut cheap = Client::connect(addr).unwrap();
    match cheap.sweep(&one_point("serve-cheap", 2, 2)).unwrap() {
        SweepResponse::Completed { points, .. } => assert_eq!(points.len(), 1),
        other => panic!("expected completion, got {other:?}"),
    }
    assert!(
        !slow_done.load(Ordering::Acquire),
        "the cheap report waited for the slow point"
    );

    assert!(slow.join().unwrap(), "the slow request did not complete");
    let idle = watcher.stats().unwrap();
    assert_eq!(idle.get("pool_saturation").as_f64(), Some(0.0));
    watcher.shutdown().unwrap();
    server.join();
}

/// A 10,000-deep line of `[` once overflowed the handler thread's stack
/// and aborted the whole daemon; now it is one `error` reply, and the
/// daemon keeps answering on that connection and on new ones.
#[test]
fn deeply_nested_line_is_an_error_not_a_crash() {
    use std::io::{BufRead, BufReader, Write};
    let server = start(None, 1, 8);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = |line: &str| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut text = String::new();
        reader.read_line(&mut text).unwrap();
        tlb_json::parse(text.trim_end()).unwrap()
    };
    let deep = reply(&"[".repeat(10_000));
    assert_eq!(deep.get("type").as_str(), Some("error"));
    assert!(deep.get("message").as_str().unwrap().contains("nesting"));
    let pong = reply(r#"{"cmd":"ping"}"#);
    assert_eq!(pong.get("type").as_str(), Some("pong"));
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.ping().unwrap().get("type").as_str(), Some("pong"));
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn protocol_errors_keep_the_connection_usable() {
    let server = start(None, 1, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();

    let bad_json = client.request(&Value::Str("not an object".into())).unwrap();
    assert_eq!(bad_json.get("type").as_str(), Some("error"));

    // Strict scenario validation: unknown keys (a typo, or a solver race
    // the simulator does not have) are a structured error, not a dropped
    // connection or an exit code.
    let typo = Value::object(vec![
        ("schema_version", 1i64.into()),
        ("name", "typo".into()),
        ("nodse", 2usize.into()),
    ]);
    let race = Value::object(vec![
        ("schema_version", 1i64.into()),
        ("name", "race".into()),
        ("app", "synthetic".into()),
        ("portfolio", "all".into()),
    ]);
    for scenario in [typo, race] {
        let reply = client
            .request(&Value::object(vec![
                ("cmd", "sweep".into()),
                ("scenario", scenario),
            ]))
            .unwrap();
        assert_eq!(reply.get("type").as_str(), Some("error"));
        assert!(reply
            .get("message")
            .as_str()
            .unwrap()
            .contains("invalid scenario"));
    }

    assert_eq!(client.ping().unwrap().get("type").as_str(), Some("pong"));
    client.shutdown().unwrap();
    server.join();
}

/// A scenario whose axes expand to more than `MAX_POINTS` points is a
/// structured `error` naming the cap, and the same connection then
/// answers `ping`. Without the cap the expansion was sized by an
/// unchecked product of the axis lengths.
#[test]
fn a_grid_over_the_point_cap_is_an_error() {
    let server = start(None, 1, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let seeds: Vec<Value> = (0..=tlb_sweep::MAX_POINTS as u64)
        .map(Value::from)
        .collect();
    let scenario = Value::object(vec![
        ("schema_version", 1i64.into()),
        ("name", "too-many-points".into()),
        ("app", "synthetic".into()),
        ("axes", Value::object(vec![("seed", Value::Array(seeds))])),
    ]);
    match client.sweep(&scenario).unwrap() {
        SweepResponse::Error(message) => {
            assert!(message.contains("more than 10000 points"), "{message}")
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    assert_eq!(client.ping().unwrap().get("type").as_str(), Some("pong"));
    client.shutdown().unwrap();
    server.join();
}

/// A point that panics is that point's error. A scenario with no
/// iterations, which `validate` refuses but `Executor::admit` does not
/// check, once panicked inside the simulator; the pool re-raised the
/// panic on the dispatcher thread, which died, and every request after
/// it waited forever. Now the subscriber gets an error, and the same
/// daemon goes on serving sweeps and pings.
#[test]
fn a_panicking_point_is_an_error_not_a_dead_dispatcher() {
    use std::time::Duration;
    use tlb_serve::Admission;
    let server = start(None, 1, 8);
    let mut scenario = Scenario::from_json(&scenario_json("serve-panic", &[5])).unwrap();
    scenario.iterations = 0;
    let Admission::Admitted(request) = server.executor().admit(&scenario) else {
        panic!("an idle executor shed the request");
    };
    assert!(request.pending > 0);
    for _ in 0..request.pending {
        let (_key, result) = request
            .rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the panicking point is published within 5 s");
        let message = result.expect_err("a panicking point is an error");
        assert!(message.starts_with("point panicked: "), "{message}");
    }

    let healthy = scenario_json("serve-after-panic", &[6]);
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.sweep(&healthy).unwrap() {
        SweepResponse::Completed { points, .. } => assert_eq!(points.len(), 4),
        other => panic!("expected completion, got {other:?}"),
    }
    assert_eq!(client.ping().unwrap().get("type").as_str(), Some("pong"));
    let panics = counter(&client.stats().unwrap(), "serve.point_panics");
    assert_eq!(panics, request.pending as u64);
    client.shutdown().unwrap();
    server.join();
}

/// A request line over 1 MiB is refused with an `error` naming the
/// limit (here a well-formed 2 MiB `ping`, which would otherwise be
/// answered), its bytes are dropped unbuffered, and the next line on
/// the same connection is served.
#[test]
fn an_over_long_line_is_refused_and_the_connection_stays_usable() {
    use std::io::{BufRead, BufReader, Write};
    let server = start(None, 1, 8);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read_reply = || {
        let mut text = String::new();
        reader.read_line(&mut text).unwrap();
        tlb_json::parse(text.trim_end()).unwrap()
    };
    let long = format!(r#"{{"cmd":"ping","pad":"{}"}}"#, "x".repeat(2 << 20));
    stream.write_all(format!("{long}\n").as_bytes()).unwrap();
    let refused = read_reply();
    assert_eq!(refused.get("type").as_str(), Some("error"));
    let message = refused.get("message").as_str().unwrap();
    assert!(message.contains("1048576 bytes"), "{message}");
    stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    assert_eq!(read_reply().get("type").as_str(), Some("pong"));
    drop(stream);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.shutdown().unwrap();
    server.join();
}
