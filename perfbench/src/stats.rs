//! Percentiles and open-loop timing, shared by every workload.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it, with the sample
//! count stated. A nearest-rank p99 over 300 samples rests on three
//! values; this summary never quotes a tail that fewer than ten samples
//! support.
//!
//! The open loop sends request `j` at its due time `start + j / rate`,
//! whether or not earlier requests have returned, and times it from that
//! due time. A stall therefore shows up in the latency of every request
//! queued behind it, and the generator's own lateness (send time minus
//! due time) is recorded separately so a run can tell a slow server from
//! a slow generator.

use std::time::{Duration, Instant};

/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median and supported tail of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (lower middle for an even count).
    pub p50: f64,
    /// The percentile [`Summary::tail`] reports, in percent: 99 when at
    /// least 1010 samples exist, lower when fewer do, and 100 (the
    /// maximum) when fewer than 21 exist, so that no percentile above
    /// the median has ten samples beyond it.
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary::of_sorted(&v)
    }

    /// Summarises already sorted samples.
    pub fn of_sorted(v: &[f64]) -> Option<Summary> {
        let n = v.len();
        let mid = n.checked_sub(1)? / 2;
        // Index i has n-1-i samples after it. The p99 index is
        // ceil(0.99 n) - 1; never go past the last index that keeps
        // TAIL_BEYOND samples beyond it, and never below the median.
        let p99_idx = (n * 99).div_ceil(100).saturating_sub(1);
        let (idx, pct) = match n.checked_sub(TAIL_BEYOND + 1) {
            Some(max_idx) if p99_idx <= max_idx => (p99_idx, 99.0),
            Some(max_idx) if max_idx >= mid => (max_idx, 100.0 * (max_idx + 1) as f64 / n as f64),
            _ => (n - 1, 100.0),
        };
        Some(Summary {
            n,
            p50: v[mid],
            tail_pct: pct,
            tail: v[idx],
        })
    }
}

/// The median of a sample set; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50)
}

/// The value a fraction `q` of the way through the sorted samples
/// (the lower one between two ranks); `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    v.get((q.clamp(0.0, 1.0) * last as f64) as usize).copied()
}

/// One request of an open-loop run, in nanoseconds from the run start.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shot {
    /// Index in the global schedule.
    pub seq: u64,
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When the generator actually sent it.
    pub sent_ns: u64,
    /// When the reply was complete.
    pub done_ns: u64,
    /// Whether the operation succeeded.
    pub ok: bool,
}

impl Shot {
    /// Latency from the due time, microseconds.
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }

    /// Generator lateness, microseconds.
    pub fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// The result of one open-loop run at a fixed offered rate, or of a
/// closed-loop run.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Every request sent: ordered by `seq` in an open loop, by lane in a
    /// closed one.
    pub shots: Vec<Shot>,
    /// Wall time from the first due time to the last completion.
    pub wall: Duration,
}

impl OpenLoopRun {
    /// Latencies from due time of the successful requests, microseconds.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.shots
            .iter()
            .filter(|s| s.ok)
            .map(Shot::latency_us)
            .collect()
    }

    /// Generator lateness of every request, microseconds.
    pub fn lateness_us(&self) -> Vec<f64> {
        self.shots.iter().map(Shot::late_us).collect()
    }

    /// Requests that failed or were refused.
    pub fn failed(&self) -> usize {
        self.shots.iter().filter(|s| !s.ok).count()
    }

    /// Completed requests per second of wall time.
    pub fn achieved_rps(&self) -> f64 {
        let ok = self.shots.iter().filter(|s| s.ok).count();
        ok as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Latency summaries of consecutive windows of the schedule, each
    /// `window` long (by due time), skipping windows with no success.
    pub fn windows(&self, window: Duration) -> Vec<Summary> {
        let width = window.as_nanos().max(1) as u64;
        let mut groups: Vec<Vec<f64>> = Vec::new();
        for s in self.shots.iter().filter(|s| s.ok) {
            let w = (s.due_ns / width) as usize;
            if groups.len() <= w {
                groups.resize_with(w + 1, Vec::new);
            }
            groups[w].push(s.latency_us());
        }
        groups.iter().filter_map(|g| Summary::of(g)).collect()
    }

    /// The median over windows of each window's latency tail: a stall
    /// that hits one window does not move it.
    pub fn windowed_tail_us(&self, window: Duration) -> Option<f64> {
        let tails: Vec<f64> = self.windows(window).iter().map(|s| s.tail).collect();
        median(&tails)
    }

    /// Successful completions per second in each full `window` of the run,
    /// by completion time; the last, partial window is left out.
    pub fn window_rates(&self, window: Duration) -> Vec<f64> {
        let width = window.as_nanos().max(1) as u64;
        let full = (self.wall.as_nanos() as u64 / width) as usize;
        let mut counts = vec![0u64; full];
        for s in self.shots.iter().filter(|s| s.ok) {
            if let Some(c) = counts.get_mut((s.done_ns / width) as usize) {
                *c += 1;
            }
        }
        counts
            .iter()
            .map(|&c| c as f64 / window.as_secs_f64())
            .collect()
    }

    /// Whether the generator fell further and further behind: over
    /// consecutive windows of the schedule the median lateness rose
    /// every time and ended above `limit_us`. A server that keeps up
    /// leaves lateness flat; a passing stall raises one window only.
    pub fn backlog_grew(&self, window: Duration, limit_us: f64) -> bool {
        let width = window.as_nanos().max(1) as u64;
        let mut groups: Vec<Vec<f64>> = Vec::new();
        for s in &self.shots {
            let w = (s.due_ns / width) as usize;
            if groups.len() <= w {
                groups.resize_with(w + 1, Vec::new);
            }
            groups[w].push(s.late_us());
        }
        let medians: Vec<f64> = groups.iter().filter_map(|g| median(g)).collect();
        medians.len() >= 2
            && medians.windows(2).all(|p| p[1] > p[0])
            && medians.last().is_some_and(|&m| m > limit_us)
    }
}

/// Waits until `deadline`: sleeps while it is far away, then yields
/// until it passes, so the wake-up lateness of a timer does not land in
/// every sample and the waiting thread leaves the cores to the server.
pub fn wait_until(deadline: Instant) {
    const EARLY: Duration = Duration::from_micros(80);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > EARLY * 2 {
            std::thread::sleep(left - EARLY);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs an open loop: `requests` requests at `rate` per second, spread
/// over `lanes` sender threads, each lane sending its share (`seq %
/// lanes == lane`) in schedule order. `make_lane(lane)` builds a lane's
/// sender (a connection, say); `send(&mut sender, seq)` performs one
/// blocking operation and reports success. A lane whose previous reply
/// has not come back sends late, and that lateness is charged to the
/// request.
///
/// The request log is written into `log`, which is reused: when its
/// capacity holds `requests` shots the run allocates nothing for its
/// bookkeeping, so a heap peak taken around it is the operation's own.
pub fn open_loop<S, E, M, F>(
    rate: f64,
    requests: u64,
    lanes: usize,
    mut log: Vec<Shot>,
    make_lane: M,
    send: F,
) -> Result<OpenLoopRun, E>
where
    S: Send,
    E: Send,
    M: Fn(usize) -> Result<S, E>,
    F: Fn(&mut S, u64) -> bool + Sync,
{
    let lanes = lanes.max(1);
    let interval_ns = 1e9 / rate.max(1e-3);
    let mut senders = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        senders.push(make_lane(lane)?);
    }
    log.clear();
    log.resize(requests as usize, Shot::default());
    // Each lane fills a contiguous stretch of the log; one in-place sort
    // puts the stretches back in schedule order.
    let mut stretches = Vec::with_capacity(lanes);
    let mut rest: &mut [Shot] = &mut log;
    for lane in 0..lanes as u64 {
        let len = requests.saturating_sub(lane).div_ceil(lanes as u64) as usize;
        let (mine, others) = rest.split_at_mut(len);
        stretches.push(mine);
        rest = others;
    }
    // Leave the lanes time to start before the first due time.
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        for (lane, (mut sender, stretch)) in senders.into_iter().zip(stretches).enumerate() {
            let send = &send;
            scope.spawn(move || {
                for (k, shot) in stretch.iter_mut().enumerate() {
                    let seq = (lane + k * lanes) as u64;
                    let due_ns = (seq as f64 * interval_ns) as u64;
                    wait_until(start + Duration::from_nanos(due_ns));
                    let sent_ns = start.elapsed().as_nanos() as u64;
                    let ok = send(&mut sender, seq);
                    let done_ns = start.elapsed().as_nanos() as u64;
                    *shot = Shot {
                        seq,
                        due_ns,
                        sent_ns,
                        done_ns,
                        ok,
                    };
                }
            });
        }
    });
    log.sort_unstable_by_key(|s| s.seq);
    let last_done = log.iter().map(|s| s.done_ns).max().unwrap_or(0);
    Ok(OpenLoopRun {
        shots: log,
        wall: Duration::from_nanos(last_done),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_when_enough_samples_support_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 1980.0);
        assert!(v.iter().filter(|&&x| x > s.tail).count() >= TAIL_BEYOND);
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        // Nearest-rank p99 would be 297 with three samples beyond it.
        assert_eq!(s.tail, 290.0);
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), TAIL_BEYOND);
        assert!(s.tail_pct < 99.0);
    }

    #[test]
    fn quantiles_take_the_lower_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 0.5), median(&v));
        assert_eq!(quantile(&v, 0.75), Some(4.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn small_sample_sets_report_the_maximum_and_their_size() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (3, 2.0, 3.0, 100.0));
        // 16 samples: only the 38th percentile has ten beyond it, which
        // is below the median, so the tail is the maximum.
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.p50, s.tail, s.tail_pct), (8.0, 16.0, 100.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn open_loop_times_a_fake_operation_from_its_due_time() {
        // 400 requests at 2000/s on two lanes, each taking 1 ms: a lane
        // gets a request every 1 ms, so it keeps up, and every latency is
        // close to the operation's own delay.
        let delay = Duration::from_millis(1);
        let run = open_loop::<_, (), _, _>(
            2000.0,
            400,
            2,
            Vec::new(),
            |_| Ok(()),
            |_, _| {
                std::thread::sleep(delay);
                true
            },
        )
        .unwrap();
        assert_eq!(run.shots.len(), 400);
        assert!(run.shots.iter().enumerate().all(|(i, s)| s.seq == i as u64));
        let lat = Summary::of(&run.latencies_us()).unwrap();
        assert!(lat.p50 >= 1000.0, "{lat:?}");
        assert!(run.failed() == 0);
        assert!(run.achieved_rps() > 1000.0);
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        // One lane at 1000/s with a 5 ms operation: the lane can serve
        // only 200/s, so it falls behind and lateness keeps growing.
        let run = open_loop::<_, (), _, _>(
            1000.0,
            60,
            1,
            Vec::new(),
            |_| Ok(()),
            |_, _| {
                std::thread::sleep(Duration::from_millis(5));
                true
            },
        )
        .unwrap();
        let late = run.lateness_us();
        assert!(late[59] > late[10] + 100_000.0, "{} {}", late[10], late[59]);
        // The last request waited for all the stalls before it.
        assert!(run.shots[59].latency_us() > 200_000.0);
        assert!(run.backlog_grew(Duration::from_millis(20), 1000.0));
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_windowed_tail() {
        // 1000/s for 0.5 s in 100 ms windows; one request in the third
        // window stalls 30 ms, which delays the next thirty behind it.
        let run = open_loop::<_, (), _, _>(
            1000.0,
            500,
            1,
            Vec::new(),
            |_| Ok(()),
            |_, seq| {
                if seq == 250 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                true
            },
        )
        .unwrap();
        let windows = run.windows(Duration::from_millis(100));
        assert_eq!(windows.len(), 5);
        assert!(windows[2].tail > 10_000.0, "{:?}", windows[2]);
        assert!(run.windowed_tail_us(Duration::from_millis(100)).unwrap() < 10_000.0);
        // Lateness rose in one window and fell back: no growing backlog.
        assert!(!run.backlog_grew(Duration::from_millis(100), 1000.0));
    }

    #[test]
    fn the_request_log_is_written_into_the_buffer_given() {
        // Three lanes over 100 requests: stretches of 34, 33 and 33.
        let log = Vec::with_capacity(100);
        let at = log.as_ptr();
        let run = open_loop::<_, (), _, _>(20_000.0, 100, 3, log, |_| Ok(()), |_, _| true).unwrap();
        assert_eq!(run.shots.as_ptr(), at);
        assert!(run.shots.iter().enumerate().all(|(i, s)| s.seq == i as u64));
        assert!(run.shots.iter().all(|s| s.ok && s.done_ns >= s.sent_ns));
    }

    #[test]
    fn window_rates_count_successes_by_completion_and_drop_the_partial_window() {
        // One completion a millisecond for 1.2 s, every tenth failed.
        let shots: Vec<Shot> = (0..1200u64)
            .map(|i| Shot {
                seq: i,
                done_ns: i * 1_000_000,
                ok: i % 10 != 0,
                ..Shot::default()
            })
            .collect();
        let run = OpenLoopRun {
            shots,
            wall: Duration::from_millis(1200),
        };
        assert_eq!(
            run.window_rates(Duration::from_millis(500)),
            vec![900.0, 900.0]
        );
    }

    #[test]
    fn failed_operations_are_counted_not_timed() {
        let run = open_loop::<_, (), _, _>(
            5000.0,
            100,
            1,
            Vec::new(),
            |_| Ok(()),
            |_, seq| seq % 10 != 0,
        )
        .unwrap();
        assert_eq!(run.failed(), 10);
        assert_eq!(run.latencies_us().len(), 90);
    }
}
