//! Fixture: blocking-under-lock (direct, transitive, suppressed, and
//! clean shapes, and a replica ack awaited under a guard) plus a
//! transitive panic path from the `handle_request` entry point.

pub struct Gate {
    state: Mutex<u64>,
}

impl Gate {
    pub fn stream_locked(&self, conn: &mut FrameConn) {
        let g = self.state.lock();
        conn.send(&row(*g));
    }

    pub fn stream_suppressed(&self, conn: &mut FrameConn) {
        let g = self.state.lock();
        // lint:allow(blocking-under-lock) fixture: justified twin of
        // stream_locked above
        conn.send(&row(*g));
    }

    pub fn stream_unlocked(&self, conn: &mut FrameConn) {
        let v = {
            let g = self.state.lock();
            *g
        };
        conn.send(&row(v));
    }

    pub fn pace_locked(&self) {
        let _g = self.state.lock();
        self.pace();
    }

    fn pace(&self) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

pub fn handle_request(input: &str) -> u64 {
    parse(input)
}

fn parse(input: &str) -> u64 {
    assert!(!input.is_empty(), "empty request");
    input.len() as u64
}

impl Gate {
    pub fn ack_locked(&self, pending: PendingWrite) {
        let _g = self.state.lock();
        pending.wait();
    }
}
