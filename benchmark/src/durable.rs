//! `durable`: a journaled device whose data outgrows its page caches.
//!
//! `boot_from_device` over a `MemDevice` with the default geometry. A
//! 20k-row dictionary of ~100-byte words (~2 MB, ~8x the 64-page heap
//! budget) pages its rows; 64 tenants each own four 8 KiB private files,
//! which spill. A session is a point query on the paged table, a read of
//! one spilled file and an 8 KiB volatile write; every 8th session ends
//! with a `commit_vol` that commits the file it just wrote and discards
//! the rest of `Vol(init)`, as one journal transaction. Journal and
//! block do most of the work. No log maintenance runs.
//!
//! After the window, the log as a crash would leave it is replayed with
//! `maxoid::recover`, and every acknowledged commit whose file is
//! missing or different in the replayed store counts as lost.

use crate::ops;
use crate::record::Recorder;
use crate::rng::{self, Rng};
use crate::trace::{Tracer, DRAIN_EVERY};
use crate::{worker_of, Fixture, Phase, Round, WORKERS};
use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, DeviceBootConfig, MaxoidSystem, Pid, Uri, VolCommitPlan};
use maxoid_block::MemDevice;
use maxoid_vfs::{vpath, Mode, VPath};
use std::collections::BTreeMap;
use std::time::Instant;

const FILES: usize = 4;
const FILE_BYTES: usize = 8 * 1024;
const WORD_BYTES: usize = 100;
const VOL_NAMES: usize = 4;
const GESTURE_EVERY: u64 = 8;

/// Size of the device's contents and of one window.
#[derive(Debug, Clone)]
pub struct Params {
    /// Initiator/delegate pairs.
    pub tenants: usize,
    /// Dictionary rows.
    pub rows: usize,
    /// Sessions per window, split evenly between the workers.
    pub sessions: usize,
}

impl Params {
    /// The benchmark's size.
    pub fn full() -> Self {
        Params { tenants: 64, rows: 20_000, sessions: 8_000 }
    }
}

struct Tenant {
    init: String,
    del_pid: Pid,
    files: Vec<VPath>,
    vol: Vec<VPath>,
}

/// An acknowledged commit: the public file it promoted.
#[derive(Debug, Clone)]
struct Commit {
    t: usize,
    n: u64,
    name: String,
}

#[derive(Debug, Default)]
struct TenantExpect {
    sessions: u64,
    /// Session number that last wrote each rotating volatile name.
    vol_last: [Option<u64>; VOL_NAMES],
}

/// A booted device.
pub struct Durable {
    sys: MaxoidSystem,
    seed: u64,
    /// Sessions per worker per window.
    sessions: usize,
    words: Uri,
    ids: Vec<i64>,
    tenants: Vec<Tenant>,
}

/// The dictionary word of row `i`: ~100 bytes, unique per row.
fn word(seed: u64, i: usize) -> String {
    let mut w = format!("w{i}-{:016x}-", rng::hash(seed, &[3, i as u64]));
    while w.len() < WORD_BYTES {
        w.push((b'a' + (w.len() % 26) as u8) as char);
    }
    w
}

fn file_key(seed: u64, t: usize, i: usize) -> u64 {
    rng::hash(seed, &[1, t as u64, i as u64])
}

fn body_key(seed: u64, t: usize, n: u64) -> u64 {
    rng::hash(seed, &[2, t as u64, n])
}

fn setup(seed: u64, p: &Params) -> Result<Durable, String> {
    let e = |what: &'static str| {
        move |err: maxoid::SystemError| format!("durable set-up, {what}: {err}")
    };
    let dev = Box::new(MemDevice::new());
    let sys =
        MaxoidSystem::boot_from_device(dev, &DeviceBootConfig::default()).map_err(e("boot"))?;
    sys.install("dur.seeder", vec![], MaxoidManifest::new()).map_err(e("install"))?;
    let seeder = sys.launch("dur.seeder").map_err(e("launch"))?;
    let words = Uri::parse("content://user_dictionary/words").map_err(|x| x.to_string())?;
    let mut ids = Vec::with_capacity(p.rows);
    for i in 0..p.rows {
        let vals = ContentValues::new().put("word", word(seed, i).as_str());
        let uri = sys.cp_insert(seeder, &words, &vals).map_err(e("seed dictionary"))?;
        ids.push(uri.id().ok_or("insert returned no row id")?);
    }
    let mut tenants = Vec::with_capacity(p.tenants);
    let mut buf = vec![0u8; FILE_BYTES];
    for t in 0..p.tenants {
        let app = format!("dur.app{t}");
        let init = format!("dur.init{t}");
        sys.install(&app, vec![], MaxoidManifest::new()).map_err(e("install"))?;
        sys.install(&init, vec![], MaxoidManifest::new()).map_err(e("install"))?;
        let own = sys.launch(&app).map_err(e("launch"))?;
        let dir = vpath(&format!("/data/data/{app}/files"));
        sys.kernel.mkdir_all(own, &dir, Mode::PRIVATE).map_err(|x| x.to_string())?;
        let mut files = Vec::with_capacity(FILES);
        for i in 0..FILES {
            let path = dir.join(&format!("orig{i}.dat")).map_err(|x| x.to_string())?;
            rng::fill(&mut buf, file_key(seed, t, i));
            sys.kernel.write(own, &path, &buf, Mode::PRIVATE).map_err(|x| x.to_string())?;
            files.push(path);
        }
        let del_pid = sys.launch_as_delegate(&app, &init).map_err(e("delegate"))?;
        let vol =
            (0..VOL_NAMES).map(|s| vpath(&format!("/storage/sdcard/{init}_s{s}.dat"))).collect();
        tenants.push(Tenant { init, del_pid, files, vol });
    }
    if let Some(j) = sys.journal() {
        j.flush().map_err(|x| format!("durable set-up, flush: {x}"))?;
    }
    Ok(Durable { sys, seed, sessions: p.sessions / WORKERS, words, ids, tenants })
}

/// One worker's op generator and what its tenants should see.
pub struct Worker {
    mine: Vec<usize>,
    rng: Rng,
    /// Sessions this worker has issued.
    k: u64,
    tenants: BTreeMap<usize, TenantExpect>,
    /// Commits acknowledged since the last check.
    commits: Vec<Commit>,
    /// Bytes written since the last check.
    user_bytes: u64,
    body: Vec<u8>,
}

impl Fixture for Durable {
    type Worker = Worker;

    fn sys(&self) -> &MaxoidSystem {
        &self.sys
    }

    fn pids(&self) -> Vec<Pid> {
        self.tenants.iter().map(|t| t.del_pid).collect()
    }

    fn workers(&self) -> Vec<Worker> {
        (0..WORKERS)
            .map(|w| Worker {
                mine: (0..self.tenants.len()).filter(|&t| worker_of(t) == w).collect(),
                rng: Rng::new(self.seed, w as u64),
                k: 0,
                tenants: BTreeMap::new(),
                commits: Vec::new(),
                user_bytes: 0,
                body: vec![0u8; FILE_BYTES],
            })
            .collect()
    }

    fn run(&self, wk: &mut Worker, tracer: Option<&Tracer>) -> Recorder {
        let sys = &self.sys;
        let traced = tracer.is_some();
        let mut rec = Recorder::default();
        for i in 1..=self.sessions {
            wk.k += 1;
            let k = wk.k;
            let t = wk.mine[wk.rng.below(wk.mine.len())];
            let row = wk.rng.below(self.ids.len());
            let file = wk.rng.below(FILES);
            let ten = &self.tenants[t];
            let te = wk.tenants.entry(t).or_default();
            let n = te.sessions;
            te.sessions += 1;
            let slot = (n % VOL_NAMES as u64) as usize;
            // A gesture session writes a fresh name, then commits it.
            let commit = k.is_multiple_of(GESTURE_EVERY).then(|| format!("{}_c{k}.dat", ten.init));
            let fresh = commit.as_ref().map(|name| vpath(&format!("/storage/sdcard/{name}")));
            let target = fresh.as_ref().unwrap_or(&ten.vol[slot]);
            rng::fill(&mut wk.body, body_key(self.seed, t, n));
            rec.note(&[t as u64, n, row as u64, file as u64, u64::from(commit.is_some())]);

            let started = Instant::now();
            let got = ops::cp_query(
                sys,
                &mut rec,
                traced,
                ten.del_pid,
                &self.words.with_id(self.ids[row]),
            );
            let read = ops::fs_read(sys, &mut rec, traced, ten.del_pid, &ten.files[file]);
            let wrote = ops::fs_write(sys, &mut rec, traced, ten.del_pid, target, &wk.body);
            let committed = match (&commit, wrote) {
                (Some(name), Some(())) => {
                    let plan = VolCommitPlan {
                        external: vec![name.clone()],
                        discard_rest: true,
                        ..Default::default()
                    };
                    ops::commit_vol(sys, &mut rec, traced, &ten.init, &plan)
                }
                _ => None,
            };
            rec.push(ops::SESSION, started.elapsed());

            if let Some(rs) = got {
                let want = word(self.seed, row);
                rec.check(ops::word_of(&rs) == Some(want.as_str()), || {
                    format!("durable: row {row} read {:?}", ops::word_of(&rs))
                });
            }
            if let Some(data) = read {
                let want = rng::payload(FILE_BYTES, file_key(self.seed, t, file));
                rec.check(data == want, || {
                    format!("durable: tenant {t} file {file} read wrong bytes")
                });
            }
            if wrote.is_some() {
                wk.user_bytes += FILE_BYTES as u64;
                if commit.is_none() {
                    te.vol_last[slot] = Some(n);
                }
            }
            if let (Some(name), Some(())) = (commit, committed) {
                te.vol_last = [None; VOL_NAMES];
                wk.commits.push(Commit { t, n, name });
            }
            if let Some(tr) = tracer.filter(|_| i % DRAIN_EVERY == 0) {
                tr.drain();
            }
        }
        rec
    }

    /// File reads return the bytes last written: each tenant's live
    /// volatile files and every file committed in the window. Then the
    /// crash replay.
    fn check(&self, rec: &mut Recorder, workers: &mut [Worker]) -> BTreeMap<&'static str, u64> {
        let sys = &self.sys;
        for (&t, te) in workers.iter().flat_map(|wk| &wk.tenants) {
            let ten = &self.tenants[t];
            for (slot, last) in te.vol_last.iter().enumerate() {
                let Some(n) = *last else { continue };
                let got = sys.kernel.read(ten.del_pid, &ten.vol[slot]);
                let want = rng::payload(FILE_BYTES, body_key(self.seed, t, n));
                rec.check(got.as_deref().ok() == Some(want.as_slice()), || {
                    format!("durable: tenant {t} lost volatile file {slot}")
                });
            }
        }
        let commits: Vec<Commit> = workers.iter_mut().flat_map(|wk| wk.commits.drain(..)).collect();
        let public = maxoid::layout::back_ext_pub();
        for c in &commits {
            let got = public
                .join(&c.name)
                .ok()
                .and_then(|p| sys.kernel.vfs().with_store(|s| s.read(&p)).ok());
            let want = rng::payload(FILE_BYTES, body_key(self.seed, c.t, c.n));
            rec.check(got.as_deref() == Some(want.as_slice()), || {
                format!("durable: committed file {} is missing or different", c.name)
            });
        }
        let mut counts = BTreeMap::new();
        counts.insert(
            "user_bytes",
            workers.iter_mut().map(|wk| std::mem::take(&mut wk.user_bytes)).sum(),
        );
        counts.insert("acked_commits", commits.len() as u64);
        counts.insert("lost_commits", self.lost_commits(&commits));
        counts
    }
}

impl Durable {
    /// Replays the log a crash right now would leave and counts the
    /// acknowledged commits whose file did not survive.
    fn lost_commits(&self, commits: &[Commit]) -> u64 {
        let Some(journal) = self.sys.journal() else { return commits.len() as u64 };
        let sub = match maxoid::recover(&journal.bytes()) {
            Ok(sub) => sub,
            Err(e) => {
                eprintln!("durable: replay failed ({e}); every commit counts as lost");
                return commits.len() as u64;
            }
        };
        let public = maxoid::layout::back_ext_pub();
        let lost = commits
            .iter()
            .filter(|c| {
                let got =
                    public.join(&c.name).ok().and_then(|p| sub.vfs.with_store(|s| s.read(&p)).ok());
                got != Some(rng::payload(FILE_BYTES, body_key(self.seed, c.t, c.n)))
            })
            .count();
        lost as u64
    }
}

/// Boots a device and runs one round of windows; each window is followed
/// by the live checks and the crash replay.
pub fn round(seed: u64, p: &Params, plan: &[Phase]) -> Result<Round, String> {
    let started = Instant::now();
    let fx = setup(seed, p)?;
    Round::drive(&fx, started.elapsed().as_secs_f64(), plan)
}
