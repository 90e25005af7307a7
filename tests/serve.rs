//! End-to-end tests of the serve daemon and the executor refactor:
//!
//! * golden regression — the fleet CLI's JSON reports are pinned to
//!   pre-refactor captures in `tests/golden/`, at worker counts 1 and 4
//!   (the batch engine is now a thin caller of the shared job-queue
//!   executor; its output must not have moved by a byte), and
//! * daemon/CLI byte-identity — `run`/`faults`/`fleet` payloads decoded
//!   from daemon response envelopes diff clean against the matching
//!   one-shot CLI documents, over both stdio and a Unix socket.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use clockless::serve::{decode_payload, Json};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clockless"))
}

fn repo_path(rel: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(rel)
        .to_string_lossy()
        .into_owned()
}

/// Runs the CLI, asserting the expected exit status, and returns stdout.
fn cli_stdout(args: &[&str], expect_success: bool) -> String {
    let out = cli().args(args).output().expect("binary runs");
    assert_eq!(out.status.success(), expect_success, "{out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

// ------------------------------------------------- executor refactor goldens

/// The demo batch (clean jobs over all three job sources) must render
/// byte-identically to the pre-refactor golden at any worker count.
#[test]
fn fleet_demo_report_matches_pre_refactor_golden() {
    let golden =
        std::fs::read_to_string(repo_path("tests/golden/fleet_demo.json")).expect("golden present");
    for jobs in ["1", "4"] {
        let stdout = cli_stdout(
            &[
                "fleet",
                &repo_path("models/demo.fleet"),
                "--jobs",
                jobs,
                "--json",
            ],
            true,
        );
        assert_eq!(stdout, golden, "demo report drifted at --jobs {jobs}");
    }
}

/// The hostile batch (panicking chaos probe, blown budget, conflicts)
/// exercises the quarantine path through the executor; report pinned
/// the same way. Exit code stays 1 — failures quarantined, not hidden.
#[test]
fn fleet_chaos_report_matches_pre_refactor_golden() {
    let golden = std::fs::read_to_string(repo_path("tests/golden/fleet_chaos.json"))
        .expect("golden present");
    for jobs in ["1", "4"] {
        let stdout = cli_stdout(
            &[
                "fleet",
                &repo_path("models/chaos.fleet"),
                "--jobs",
                jobs,
                "--json",
            ],
            false,
        );
        assert_eq!(stdout, golden, "chaos report drifted at --jobs {jobs}");
    }
}

// ------------------------------------------------------------- run --json

#[test]
fn run_json_renders_the_shared_report() {
    let doc = cli_stdout(&["run", &repo_path("models/fig1.rtl"), "--json"], true);
    assert!(doc.contains("\"model\": \"fig1\""), "{doc}");
    assert!(
        doc.contains("{\"name\": \"R1\", \"value\": \"7\"}"),
        "{doc}"
    );
    assert!(doc.ends_with("\"conflicts\": []\n}\n"), "{doc}");
    // Backend choice never changes the document.
    let compiled = cli_stdout(
        &[
            "run",
            &repo_path("models/fig1.rtl"),
            "--json",
            "--backend",
            "compiled",
        ],
        true,
    );
    assert_eq!(doc, compiled);
}

/// `models/conflict.rtl` is the corpus model with a non-empty
/// `conflicts` list. Conflict sites are recorded inline by every engine,
/// so its document is pinned byte-for-byte on the interpreter and at
/// every compiled `-O` level, traced and untraced alike.
#[test]
fn conflict_corpus_model_matches_golden_traced_and_untraced() {
    let golden = std::fs::read_to_string(repo_path("tests/golden/run_conflict.json"))
        .expect("golden present");
    assert!(
        golden.contains("\"ILLEGAL on bus `X` visible at step 2 phase rb\""),
        "{golden}"
    );
    let model = repo_path("models/conflict.rtl");
    let engines: [&[&str]; 4] = [
        &["--backend", "interpreted"],
        &["--backend", "compiled", "--opt", "0"],
        &["--backend", "compiled", "--opt", "1"],
        &["--backend", "compiled", "--opt", "2"],
    ];
    for engine in engines {
        for trace in [&[][..], &["--trace"][..]] {
            let mut args = vec!["run", model.as_str(), "--json"];
            args.extend_from_slice(engine);
            args.extend_from_slice(trace);
            assert_eq!(cli_stdout(&args, true), golden, "run {args:?}");
        }
    }
}

// ------------------------------------------------- daemon vs CLI, stdio

/// Drives `clockless serve` (stdio mode) with request lines, returns
/// the response lines.
fn serve_stdio(requests: &str) -> Vec<String> {
    let mut child = cli()
        .arg("serve")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(requests.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout)
        .expect("utf-8 responses")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn daemon_payloads_are_byte_identical_to_one_shot_cli() {
    let fig1 = repo_path("models/fig1.rtl");
    let demo = repo_path("models/demo.fleet");
    let requests = format!(
        "{{\"id\":1,\"op\":\"run\",\"path\":\"{fig1}\"}}\n\
         {{\"id\":2,\"op\":\"faults\",\"path\":\"{fig1}\",\"seed\":7}}\n\
         {{\"id\":3,\"op\":\"fleet\",\"path\":\"{demo}\",\"jobs\":4}}\n"
    );
    let lines = serve_stdio(&requests);
    assert_eq!(lines.len(), 3, "{lines:?}");

    let cli_run = cli_stdout(&["run", &fig1, "--json"], true);
    let cli_faults = cli_stdout(&["faults", &fig1, "--seed", "7", "--json"], true);
    let cli_fleet = cli_stdout(&["fleet", &demo, "--jobs", "4", "--json"], true);

    assert_eq!(decode_payload(&lines[0]).as_deref(), Some(cli_run.as_str()));
    assert_eq!(
        decode_payload(&lines[1]).as_deref(),
        Some(cli_faults.as_str())
    );
    assert_eq!(
        decode_payload(&lines[2]).as_deref(),
        Some(cli_fleet.as_str())
    );
}

/// The daemon's untraced `run` lists the conflicted model's sites
/// exactly as the golden does, on the cached plan and the interpreter.
#[test]
fn daemon_run_of_conflicted_model_matches_golden() {
    let golden = std::fs::read_to_string(repo_path("tests/golden/run_conflict.json"))
        .expect("golden present");
    let model = repo_path("models/conflict.rtl");
    let requests = format!(
        "{{\"id\":1,\"op\":\"run\",\"path\":\"{model}\"}}\n\
         {{\"id\":2,\"op\":\"run\",\"path\":\"{model}\",\"backend\":\"interpreted\"}}\n"
    );
    let lines = serve_stdio(&requests);
    assert_eq!(lines.len(), 2, "{lines:?}");
    for line in &lines {
        assert_eq!(decode_payload(line).as_deref(), Some(golden.as_str()));
    }
}

#[test]
fn daemon_quarantines_hostile_batches_and_keeps_serving() {
    let chaos = repo_path("models/chaos.fleet");
    let requests = format!(
        "{{\"id\":1,\"op\":\"fleet\",\"path\":\"{chaos}\",\"jobs\":2}}\n\
         {{\"id\":2,\"op\":\"ping\"}}\n"
    );
    let lines = serve_stdio(&requests);
    assert_eq!(lines.len(), 2, "{lines:?}");
    // The hostile batch still answers ok:true — failures are quarantined
    // rows inside the payload, exactly as on the CLI (which exits 1 with
    // the same stdout).
    let payload = decode_payload(&lines[0]).expect("fleet payload");
    let golden = std::fs::read_to_string(repo_path("tests/golden/fleet_chaos.json"))
        .expect("golden present");
    assert_eq!(payload, golden);
    assert_eq!(decode_payload(&lines[1]).as_deref(), Some("pong\n"));
}

#[test]
fn daemon_reports_cache_hits_and_errors_in_stats() {
    let fig1 = repo_path("models/fig1.rtl");
    let requests = format!(
        "{{\"id\":1,\"op\":\"run\",\"path\":\"{fig1}\"}}\n\
         {{\"id\":2,\"op\":\"run\",\"path\":\"{fig1}\"}}\n\
         not even json\n\
         {{\"id\":4,\"op\":\"stats\"}}\n"
    );
    let lines = serve_stdio(&requests);
    assert_eq!(lines.len(), 4, "{lines:?}");
    let envelope = Json::parse(&lines[2]).expect("error envelope is JSON");
    assert_eq!(envelope.get("ok").and_then(Json::as_bool), Some(false));
    let stats = Json::parse(&decode_payload(&lines[3]).expect("stats payload"))
        .expect("stats document is JSON");
    let cache = stats.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    let jobs = stats.get("jobs").expect("jobs block");
    assert_eq!(jobs.get("errors").and_then(Json::as_u64), Some(1));
}

// ------------------------------------------------ daemon over a Unix socket

#[test]
fn socket_daemon_serves_clients_across_connections() {
    let socket =
        std::env::temp_dir().join(format!("clockless-serve-it-{}.sock", std::process::id()));
    let mut daemon = cli()
        .args(["serve", "--socket", &socket.to_string_lossy()])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    for _ in 0..400 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let client = |requests: &str, payload_only: bool| -> String {
        let mut args = vec!["client".to_string(), socket.to_string_lossy().into_owned()];
        if payload_only {
            args.push("--payload".to_string());
        }
        let mut child = cli()
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("client starts");
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(requests.as_bytes())
            .expect("requests written");
        let out = child.wait_with_output().expect("client exits");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };

    // Connection 1: run a model, payload-only output.
    let fig1 = repo_path("models/fig1.rtl");
    let doc = client(
        &format!("{{\"id\":1,\"op\":\"run\",\"path\":\"{fig1}\"}}\n"),
        true,
    );
    let cli_doc = cli_stdout(&["run", &fig1, "--json"], true);
    assert_eq!(doc, cli_doc, "socket payload differs from one-shot CLI");

    // Connection 2: the same model is now a cache hit, then shutdown.
    let text = client(
        &format!(
            "{{\"id\":1,\"op\":\"run\",\"path\":\"{fig1}\"}}\n\
             {{\"id\":2,\"op\":\"stats\"}}\n\
             {{\"id\":3,\"op\":\"shutdown\"}}\n"
        ),
        false,
    );
    let stats_line = text
        .lines()
        .find(|l| l.contains("\"op\":\"stats\""))
        .expect("stats response");
    let stats = Json::parse(&decode_payload(stats_line).expect("payload")).expect("JSON");
    let cache = stats.get("cache").expect("cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));

    let status = daemon.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "{status:?}");
    assert!(!socket.exists(), "socket file cleaned up");
}
