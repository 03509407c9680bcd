//! A server releases each connection's socket once its client hangs up:
//! many connect/close cycles leave the process's open file count where it
//! started. This test has a binary of its own, so no other test opens
//! files while it counts.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use rr_serve::{serve, Client, ServerConfig};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs lists this process's fds")
        .count()
}

#[test]
fn closed_connections_release_their_server_sockets() {
    let root = std::env::temp_dir().join(format!("rr-serve-fds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::new(&root)
        },
    )
    .expect("serve");
    let addr = server.addr().to_string();
    // The worker closes a socket after its client has gone, so give it
    // time to catch up.
    let settle_to = |fds: usize| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while open_fds() > fds && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        open_fds()
    };
    let baseline = open_fds();
    for i in 0..200 {
        if i % 2 == 0 {
            drop(TcpStream::connect(&addr).expect("connect"));
        } else {
            let runs = Client::connect(&addr)
                .and_then(|mut c| c.list_runs())
                .expect("list");
            assert!(runs.is_empty());
        }
    }
    let after = settle_to(baseline);
    assert!(
        after <= baseline,
        "200 closed connections left {} sockets open in the server",
        after - baseline
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
