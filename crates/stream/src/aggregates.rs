//! Per-window aggregate state.
//!
//! Each open window holds one [`CorePartials`] bundle — the same partials
//! the batch fold ([`CoreAggregates::sequential`]) absorbs into — plus a
//! handful of exact counters. Because the partials obey the determinism
//! contract of [`wearscope_core::merge`], merging every *tumbling* window's
//! partials in index order and finishing once reproduces the batch
//! [`CoreAggregates`] bit-identically — the golden equivalence the
//! integration tests pin. (Sliding windows intentionally multi-count
//! records across overlapping windows; their partials describe each
//! window, not a partition of the stream.)

use wearscope_core::sessions::AttributedTx;
use wearscope_core::snapshot::{Snapshot, SnapshotError, SnapshotReader};
use wearscope_core::{CoreAggregates, CorePartials, StudyContext};
use wearscope_report::WindowReport;
use wearscope_trace::{MmeRecord, ProxyRecord};

/// Exact counters a window report is rendered from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// Proxy records absorbed (all devices).
    pub proxy_records: u64,
    /// MME records absorbed.
    pub mme_records: u64,
    /// Wearable proxy transactions absorbed.
    pub wearable_tx: u64,
    /// Wearable proxy bytes absorbed.
    pub wearable_bytes: u64,
    /// Late-but-within-lateness records merged into this window.
    pub late_merged: u64,
}

/// Every partial aggregate of one event-time window.
#[derive(Clone, Debug)]
pub struct WindowAggregates {
    /// The window's partials, attributed transactions (routed here by
    /// transaction time, in emission order) included.
    pub partials: CorePartials,
    /// Report counters.
    pub counters: WindowCounters,
}

impl WindowAggregates {
    /// The empty window.
    pub fn identity() -> WindowAggregates {
        WindowAggregates {
            partials: CorePartials::identity(),
            counters: WindowCounters::default(),
        }
    }

    /// Folds one proxy record into the window. `late` marks a record that
    /// arrived behind the watermark but within the allowed lateness.
    pub fn absorb_proxy(&mut self, ctx: &StudyContext<'_>, r: &ProxyRecord, late: bool) {
        self.partials.absorb_proxy(ctx, r);
        self.counters.proxy_records += 1;
        self.counters.late_merged += u64::from(late);
        if ctx.is_wearable_record(r) {
            self.counters.wearable_tx += 1;
            self.counters.wearable_bytes += r.bytes_total();
        }
    }

    /// Folds one MME record into the window.
    pub fn absorb_mme(&mut self, ctx: &StudyContext<'_>, r: &MmeRecord, late: bool) {
        self.partials.absorb_mme(ctx, r);
        self.counters.mme_records += 1;
        self.counters.late_merged += u64::from(late);
    }

    /// Folds one attributed transaction (routed by transaction time).
    pub fn absorb_attributed(&mut self, ctx: &StudyContext<'_>, tx: &AttributedTx) {
        self.partials.absorb_attributed(ctx, tx);
    }

    /// Merges another window's partials into this one (callers supply
    /// ascending window index, matching the merge-order contract).
    pub fn merge(&mut self, other: WindowAggregates) {
        self.partials.merge(other.partials);
        self.counters.proxy_records += other.counters.proxy_records;
        self.counters.mme_records += other.counters.mme_records;
        self.counters.wearable_tx += other.counters.wearable_tx;
        self.counters.wearable_bytes += other.counters.wearable_bytes;
        self.counters.late_merged += other.counters.late_merged;
    }

    /// Finishes into the public aggregate bundle, exactly as the batch
    /// fold does.
    pub fn finish(self, ctx: &StudyContext<'_>) -> CoreAggregates {
        self.partials.finish(ctx)
    }

    /// Renders the finalized window report.
    pub fn report(&self, index: u64, start_secs: u64, end_secs: u64, forced: bool) -> WindowReport {
        let attributed = &self.partials.attributed;
        WindowReport {
            index,
            start_secs,
            end_secs,
            proxy_records: self.counters.proxy_records,
            mme_records: self.counters.mme_records,
            wearable_tx: self.counters.wearable_tx,
            wearable_bytes: self.counters.wearable_bytes,
            users: self.partials.traffic.per_user.len() as u64,
            attributed: attributed.iter().filter(|t| t.app.is_some()).count() as u64,
            late_merged: self.counters.late_merged,
            forced,
        }
    }
}

impl Snapshot for WindowAggregates {
    fn snapshot(&self, out: &mut String) {
        let c = self.counters;
        out.push_str(&format!(
            "window-counters\t{}\t{}\t{}\t{}\t{}\n",
            c.proxy_records, c.mme_records, c.wearable_tx, c.wearable_bytes, c.late_merged
        ));
        self.partials.snapshot(out);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let fields = r.tagged("window-counters")?;
        if fields.len() != 5 {
            return Err(r.err("window-counters needs 5 fields"));
        }
        let num = |s: &str| -> Result<u64, SnapshotError> {
            s.parse::<u64>()
                .map_err(|_| r.err(format!("bad counter `{s}`")))
        };
        let counters = WindowCounters {
            proxy_records: num(fields[0])?,
            mme_records: num(fields[1])?,
            wearable_tx: num(fields[2])?,
            wearable_bytes: num(fields[3])?,
            late_merged: num(fields[4])?,
        };
        Ok(WindowAggregates {
            partials: CorePartials::restore(r)?,
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearscope_appdb::AppCatalog;
    use wearscope_devicedb::DeviceDb;
    use wearscope_geo::SectorDirectory;
    use wearscope_simtime::{Calendar, ObservationWindow, SimTime};
    use wearscope_trace::{Scheme, TraceStore, UserId};

    #[test]
    fn absorb_report_and_snapshot_roundtrip() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let mut w = WindowAggregates::identity();
        for i in 0..10u64 {
            let r = ProxyRecord {
                timestamp: SimTime::from_secs(100 + i * 7),
                user: UserId(1 + i % 2),
                imei: db
                    .example_imei(db.wearable_tacs()[0], (1 + i % 2) as u32)
                    .as_u64(),
                host: "api.weather.com".into(),
                scheme: Scheme::Https,
                bytes_down: 100,
                bytes_up: 11,
            };
            w.absorb_proxy(&ctx, &r, i == 9);
        }
        let report = w.report(0, 0, 3600, false);
        assert_eq!(report.proxy_records, 10);
        assert_eq!(report.wearable_tx, 10);
        assert_eq!(report.wearable_bytes, 10 * 111);
        assert_eq!(report.users, 2);
        assert_eq!(report.late_merged, 1);

        let mut text = String::new();
        w.snapshot(&mut text);
        let mut reader = SnapshotReader::new(&text);
        let restored = WindowAggregates::restore(&mut reader).unwrap();
        let mut text2 = String::new();
        restored.snapshot(&mut text2);
        assert_eq!(text, text2);
        assert_eq!(restored.counters, w.counters);
        assert_eq!(restored.report(0, 0, 3600, false), report);
    }

    #[test]
    fn merged_windows_finish_like_one_window() {
        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let recs: Vec<ProxyRecord> = (0..40u64)
            .map(|i| ProxyRecord {
                timestamp: SimTime::from_secs(i * 200),
                user: UserId(1 + i % 3),
                imei: db
                    .example_imei(db.wearable_tacs()[0], (1 + i % 3) as u32)
                    .as_u64(),
                host: "api.weather.com".into(),
                scheme: Scheme::Https,
                bytes_down: 50 + i,
                bytes_up: 0,
            })
            .collect();
        let mut whole = WindowAggregates::identity();
        let mut first = WindowAggregates::identity();
        let mut second = WindowAggregates::identity();
        for r in &recs {
            whole.absorb_proxy(&ctx, r, false);
            if r.timestamp.as_secs() < 3600 {
                first.absorb_proxy(&ctx, r, false);
            } else {
                second.absorb_proxy(&ctx, r, false);
            }
        }
        first.merge(second);
        let a = whole.finish(&ctx);
        let b = first.finish(&ctx);
        assert_eq!(a.activity, b.activity);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.tx_stats, b.tx_stats);
    }

    /// The checkpoint body of one small window, byte for byte: counters
    /// first, then attributed, activity, hourly, tx-stats, traffic,
    /// mobility and popularity. A change to this text breaks `--resume`
    /// from every checkpoint already on disk.
    #[test]
    fn snapshot_text_is_pinned() {
        use wearscope_core::sessions::attribute_records;
        use wearscope_devicedb::DeviceClass;
        use wearscope_trace::MmeEvent;

        let db = DeviceDb::standard();
        let catalog = AppCatalog::standard();
        let sectors = SectorDirectory::new();
        let store = TraceStore::new();
        let ctx = StudyContext::new(
            &store,
            &db,
            &sectors,
            &catalog,
            ObservationWindow::new(14, 14, Calendar::PAPER),
        );
        let watch = db.example_imei(db.wearable_tacs()[0], 1).as_u64();
        let phone = db
            .example_imei(db.tacs_of_class(DeviceClass::Smartphone)[0], 2)
            .as_u64();
        let proxy = |t: u64, user: u64, imei: u64, host: &str, down: u64| ProxyRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(user),
            imei,
            host: host.into(),
            scheme: Scheme::Https,
            bytes_down: down,
            bytes_up: 11,
        };
        let records = [
            proxy(9 * 3600 + 5, 1, watch, "api.weather.com", 100),
            proxy(9 * 3600 + 30, 1, watch, "ssl.google-analytics.com", 2000),
            proxy(86_400 + 10 * 3600, 2, phone, "maps.googleapis.com", 500),
        ];
        let mme = |t: u64, event: MmeEvent, sector: u32| MmeRecord {
            timestamp: SimTime::from_secs(t),
            user: UserId(1),
            imei: watch,
            event,
            sector,
        };

        let mut w = WindowAggregates::identity();
        for (i, r) in records.iter().enumerate() {
            w.absorb_proxy(&ctx, r, i == 1);
        }
        w.absorb_mme(&ctx, &mme(9 * 3600, MmeEvent::Attach, 2), false);
        w.absorb_mme(&ctx, &mme(9 * 3600 + 600, MmeEvent::SectorUpdate, 3), true);
        for tx in &attribute_records(&ctx, &records) {
            w.absorb_attributed(&ctx, tx);
        }
        let mut text = String::new();
        w.snapshot(&mut text);

        // 48 hourly slots; only weekday hour 9 of day 0 saw the watch.
        let hourly: String = (0..48)
            .map(|slot| {
                if slot == 9 {
                    "2\t2122\t0:1\n"
                } else {
                    "0\t0\t-\n"
                }
            })
            .collect();
        let expected = [
            "window-counters\t3\t2\t2\t2122\t2\n",
            "attributed\t2\n",
            "1\t32405\t0\t1\t111\n",
            "1\t32430\t0\t0\t2011\n",
            "activity\t1\n",
            "1\t2\t2122\t0\t9\n",
            "hourly\n",
            &hourly,
            "tx-stats\t2\n",
            "405bc00000000000 409f6c0000000000\n",
            "activity\t1\n",
            "1\t2\t2122\t0\t9\n",
            "traffic\t2\n",
            "1\t2122\t2\t2122\t2\n",
            "2\t511\t1\t0\t0\n",
            "mobility\t1\t1\t1\t1\n",
            "1\t352000000000012\t3\t33000\n",
            "1\t0\t2 3\n",
            "1\t2:600\n",
            "1\t352000000000012\t32400\n",
            "popularity\t1\t1\n",
            "0\t0\t1\n",
            "0\t1\t0\n",
            "0\n",
        ]
        .concat();
        assert_eq!(text, expected);
    }
}
