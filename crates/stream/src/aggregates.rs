//! Per-window aggregate state.
//!
//! Each open window holds one [`CorePartials`] bundle — the same partials
//! the batch fold ([`CoreAggregates::sequential`]) absorbs into — plus the
//! late-merge counter the partials cannot give. A window report derives
//! its record and wearable totals from the partials. Because the
//! partials obey the determinism contract of [`CorePartials`], merging
//! every *tumbling* window's partials in index order and finishing once
//! reproduces the batch [`CoreAggregates`] bit-identically — the golden
//! equivalence the integration tests pin. (Sliding windows intentionally
//! multi-count records across overlapping windows; their partials describe
//! each window, not a partition of the stream.)

use wearscope_core::sessions::AttributedTx;
use wearscope_core::snapshot::{RowWriter, Snapshot, SnapshotError, SnapshotReader};
use wearscope_core::{CoreAggregates, CorePartials, StudyContext};
use wearscope_devicedb::DeviceClass;
use wearscope_report::WindowReport;
use wearscope_trace::{MmeRecord, ProxyRecord};

/// The exact counters of a window that its partials do not hold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// Late-but-within-lateness records merged into this window.
    pub late_merged: u64,
}

/// Every partial aggregate of one event-time window.
#[derive(Clone, Debug, Default)]
pub struct WindowAggregates {
    /// The window's partials, attributed transactions (routed here by
    /// transaction time, in emission order) included.
    pub partials: CorePartials,
    /// Report counters.
    pub counters: WindowCounters,
}

impl WindowAggregates {
    /// Folds one proxy record, issued by a device of class `device`, into
    /// the window. `late` marks a record that arrived behind the
    /// watermark but within the allowed lateness. Returns whether a
    /// SIM-enabled wearable issued the record.
    pub fn absorb_proxy(
        &mut self,
        ctx: &StudyContext<'_>,
        r: &ProxyRecord,
        device: Option<DeviceClass>,
        late: bool,
    ) -> bool {
        self.counters.late_merged += u64::from(late);
        self.partials.absorb_proxy(ctx, r, device)
    }

    /// Folds one MME record, from a device of class `device`, into the
    /// window.
    pub fn absorb_mme(
        &mut self,
        ctx: &StudyContext<'_>,
        r: &MmeRecord,
        device: Option<DeviceClass>,
        late: bool,
    ) {
        self.partials.absorb_mme(ctx, r, device);
        self.counters.late_merged += u64::from(late);
    }

    /// Empties the window, keeping what its partials have allocated, so
    /// it can be opened again as another window.
    pub(crate) fn clear(&mut self) {
        let WindowAggregates { partials, counters } = self;
        partials.clear();
        *counters = WindowCounters::default();
    }

    /// Folds one attributed transaction (routed by transaction time).
    pub fn absorb_attributed(&mut self, tx: &AttributedTx) {
        self.partials.absorb_attributed(tx);
    }

    /// Merges another window's partials into this one (callers supply
    /// ascending window index, matching the merge-order contract).
    pub fn merge(&mut self, other: WindowAggregates) {
        self.partials.merge(other.partials);
        self.counters.late_merged += other.counters.late_merged;
    }

    /// Finishes into the public aggregate bundle, exactly as the batch
    /// fold does.
    pub fn finish(self, ctx: &StudyContext<'_>) -> CoreAggregates {
        self.partials.finish(ctx)
    }

    /// Renders the finalized window report.
    pub fn report(&self, index: u64, start_secs: u64, end_secs: u64, forced: bool) -> WindowReport {
        let p = &self.partials;
        let wearable = p.wearable.transactions.values();
        WindowReport {
            index,
            start_secs,
            end_secs,
            proxy_records: p.traffic.per_user.values().map(|&(_, tx)| tx).sum(),
            mme_records: p.quality.mme_records,
            wearable_tx: wearable.clone().map(|txs| txs.len() as u64).sum(),
            wearable_bytes: wearable.flatten().map(|&(_, bytes)| bytes).sum(),
            users: p.traffic.per_user.len() as u64,
            attributed: p.attributed.iter().filter(|t| t.app.is_some()).count() as u64,
            late_merged: self.counters.late_merged,
            forced,
        }
    }
}

impl Snapshot for WindowAggregates {
    fn snapshot(&self, out: &mut String) {
        RowWriter::tagged(out, "window-counters")
            .put(self.counters.late_merged)
            .end();
        self.partials.snapshot(out);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut row = r.tagged("window-counters")?;
        let counters = WindowCounters {
            late_merged: row.field()?,
        };
        row.end()?;
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
    use wearscope_trace::{HostId, Scheme, TraceStore, UserId};

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
        // Users 1 and 2 carry watches, user 3 a phone; the report's totals
        // are checked against counts taken here, record by record.
        let phone = db.tacs_of_class(DeviceClass::Smartphone)[0];
        let (mut proxy_records, mut wearable_tx, mut wearable_bytes) = (0, 0, 0);
        let mut w = WindowAggregates::default();
        for i in 0..15u64 {
            let user = 1 + i % 3;
            let watch = user != 3;
            let tac = if watch { db.wearable_tacs()[0] } else { phone };
            let r = ProxyRecord {
                timestamp: SimTime::from_secs(100 + i * 7),
                user: UserId(user),
                imei: db.example_imei(tac, user as u32).as_u64(),
                host: HostId::intern("api.weather.com"),
                scheme: Scheme::Https,
                bytes_down: 100 + i,
                bytes_up: 11,
            };
            w.absorb_proxy(&ctx, &r, ctx.device_class(r.imei), i == 9);
            proxy_records += 1;
            if watch {
                wearable_tx += 1;
                wearable_bytes += 111 + i;
            }
        }
        let report = w.report(0, 0, 3600, false);
        assert_eq!(report.proxy_records, proxy_records);
        assert_eq!(report.wearable_tx, wearable_tx);
        assert_eq!(report.wearable_bytes, wearable_bytes);
        assert_eq!(report.users, 3);
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
                host: HostId::intern("api.weather.com"),
                scheme: Scheme::Https,
                bytes_down: 50 + i,
                bytes_up: 0,
            })
            .collect();
        let mut whole = WindowAggregates::default();
        let mut first = WindowAggregates::default();
        let mut second = WindowAggregates::default();
        for r in &recs {
            whole.absorb_proxy(&ctx, r, ctx.device_class(r.imei), false);
            if r.timestamp.as_secs() < 3600 {
                first.absorb_proxy(&ctx, r, ctx.device_class(r.imei), false);
            } else {
                second.absorb_proxy(&ctx, r, ctx.device_class(r.imei), false);
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
    /// first, then attributed, hourly, traffic, mobility, wearable,
    /// through-device and trace-qa. A change to this text breaks
    /// `--resume` from every checkpoint already on disk.
    #[test]
    fn snapshot_text_is_pinned() {
        use wearscope_core::sessions::attribute_records;
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
            host: HostId::intern(host),
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

        let mut w = WindowAggregates::default();
        for (i, r) in records.iter().enumerate() {
            w.absorb_proxy(&ctx, r, ctx.device_class(r.imei), i == 1);
        }
        let wearable = ctx.device_class(watch);
        w.absorb_mme(&ctx, &mme(9 * 3600, MmeEvent::Attach, 2), wearable, false);
        let update = mme(9 * 3600 + 600, MmeEvent::SectorUpdate, 3);
        w.absorb_mme(&ctx, &update, wearable, true);
        for tx in &attribute_records(&ctx, &records) {
            w.absorb_attributed(tx);
        }
        let mut text = String::new();
        w.snapshot(&mut text);

        // Day 0 is a Friday: the watch's hour 9 is weekly slot 105, the
        // phone's Saturday hour 10 slot 130.
        let expected = [
            "window-counters\t2\n",
            "attributed\t2\n",
            "1\t32405\t0\t0\t111\n",
            "1\t32430\t0\tAnalytics\t2011\n",
            "hourly\t2\n",
            "105\t2\n",
            "130\t1\n",
            "traffic\t2\n",
            "1\t2122\t2\n",
            "2\t511\t1\n",
            "mobility\t1\t1\t1\n",
            "1\t352000000000012\t32400\t3\t33000\n",
            "1\t0\t2 3\n",
            "1\t2:600\n",
            "wearable\t1\t1\n",
            "1\t352000000000012\t32400:2 33000:3\n",
            "1\t352000000000012\t32405:111 32430:2011\n",
            "through-device\t-\n",
            "trace-qa\t2\t0\t0\t0 1\n",
        ]
        .concat();
        assert_eq!(text, expected);
    }
}
