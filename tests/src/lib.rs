//! Integration-test host crate: the tests live in `tests/tests/`, and
//! this library holds the fixture they share for running a daemon.

use parchmint_serve::{serve, ServeConfig, Service};
use std::net::TcpListener;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a daemon may take to exit once a client has sent
/// `shutdown`. The serve tests' daemons exit within about a millisecond
/// of [`Daemon::join`] on a 2-core machine; past this deadline the accept
/// loop is taken to be stuck.
pub const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(30);

/// A daemon serving on ephemeral loopback ports from a background
/// thread.
pub struct Daemon {
    /// The line transport's address.
    pub addr: String,
    http_addr: Option<String>,
    exited: mpsc::Receiver<()>,
    thread: JoinHandle<()>,
}

impl Daemon {
    /// Starts a daemon with the line transport only.
    pub fn start(config: ServeConfig) -> Daemon {
        Daemon::spawn(config, false)
    }

    /// Starts a daemon with the line transport and the HTTP front end.
    pub fn start_with_http(config: ServeConfig) -> Daemon {
        Daemon::spawn(config, true)
    }

    fn spawn(config: ServeConfig, with_http: bool) -> Daemon {
        let bind = || TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let address =
            |listener: &TcpListener| listener.local_addr().expect("local addr").to_string();
        let tcp = bind();
        let http = with_http.then(bind);
        let addr = address(&tcp);
        let http_addr = http.as_ref().map(address);
        let (exit, exited) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            // Dropped when `serve` returns or panics: either way `join`
            // stops waiting.
            let _exit = exit;
            serve(Arc::new(Service::new(config)), Some(tcp), http).expect("daemon runs");
        });
        Daemon {
            addr,
            http_addr,
            exited,
            thread,
        }
    }

    /// The HTTP front end's address.
    ///
    /// # Panics
    ///
    /// When the daemon was started without one.
    pub fn http_addr(&self) -> &str {
        self.http_addr.as_deref().expect("started with HTTP")
    }

    /// Waits for the daemon to exit after a client sent `shutdown`.
    ///
    /// # Panics
    ///
    /// When it has not exited within [`SHUTDOWN_DEADLINE`], and when the
    /// daemon itself panicked.
    pub fn join(self) {
        if let Err(RecvTimeoutError::Timeout) = self.exited.recv_timeout(SHUTDOWN_DEADLINE) {
            panic!("the daemon did not exit within {SHUTDOWN_DEADLINE:?} of `shutdown`");
        }
        if let Err(panic) = self.thread.join() {
            std::panic::resume_unwind(panic);
        }
    }
}
