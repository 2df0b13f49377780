//! Every derived analysis of one study, computed once.
//!
//! [`StudyResults`] is built once from the hot [`CoreAggregates`] plus the
//! vantage summaries. The takeaways, the experiment table, the full report
//! and the figure CSVs all render from it, so one run scans the store once
//! per analysis however many outputs it prints.
//!
//! What the takeaways need is computed eagerly in [`StudyResults::new`]: the
//! summary analyses, the finish steps over the aggregates and the five
//! store scans. The figure-only app analyses (sessions → Fig. 5(b), 6 and
//! 7) and the full report's trace QA scan are computed at most once, on
//! the first call to [`StudyResults::app_figures`] and
//! [`StudyResults::quality`], so a run that prints only the table never
//! pays for them.

use std::cell::OnceCell;

use wearscope_mobilenet::NetworkSummaries;

use crate::activity::{self, ActivityCorrelation, ActivitySpans};
use crate::adoption::{AdoptionTrend, CohortRetention, DataActiveShare};
use crate::apps::{AppUsage, CategoryPopularity, InstallStats};
use crate::compare::{OwnerVsRest, WearableShare};
use crate::context::StudyContext;
use crate::devices::DeviceMix;
use crate::merge::CoreAggregates;
use crate::mobility::{Displacement, LocationEntropy, MobilityActivity};
use crate::quality::DataQualityReport;
use crate::sessions::{self, PerUsage};
use crate::thirdparty::DomainBreakdown;
use crate::through_device::ThroughDeviceReport;
use crate::weekly::WeeklyPattern;

/// The study's derived analyses over one context and one set of aggregates.
pub struct StudyResults<'a> {
    /// The study the results describe.
    pub ctx: &'a StudyContext<'a>,
    /// The hot aggregates the finish steps ran over.
    pub aggs: &'a CoreAggregates,
    /// Fig. 2(a) adoption trend.
    pub trend: AdoptionTrend,
    /// Fig. 2(b) first-week cohort retention.
    pub retention: CohortRetention,
    /// Sec. 4.1 data-active share of registered users.
    pub data_active: DataActiveShare,
    /// Fig. 3(b) activity spans.
    pub spans: ActivitySpans,
    /// Fig. 3(d) span ↔ rate correlation.
    pub correlation: ActivityCorrelation,
    /// Sec. 4.2 daily active share of weekly actives.
    pub daily_active_share: f64,
    /// Fig. 4(a) owners vs the rest.
    pub owner_vs_rest: OwnerVsRest,
    /// Fig. 4(b) wearable share of owner traffic.
    pub wearable_share: WearableShare,
    /// Fig. 4(c) daily max displacement.
    pub displacement: Displacement,
    /// Sec. 4.4 location entropy.
    pub entropy: LocationEntropy,
    /// Fig. 4(d) displacement ↔ rate.
    pub mobility_activity: MobilityActivity,
    /// Sec. 4.3 app-install statistics.
    pub installs: InstallStats,
    /// Fig. 8 domain classes.
    pub domains: DomainBreakdown,
    /// Sec. 6 Through-Device fingerprinting.
    pub through_device: ThroughDeviceReport,
    /// Sec. 4.2 weekly pattern.
    pub weekly: WeeklyPattern,
    /// Sec. 4.1 device mix.
    pub devices: DeviceMix,
    app_figures: OnceCell<AppFigures>,
    quality: OnceCell<DataQualityReport>,
}

/// The figure-only app analyses, derived from the 1-minute-gap sessions.
#[derive(Clone, Debug)]
pub struct AppFigures {
    /// Fig. 5(b) per-app usage shares.
    pub usage: AppUsage,
    /// Fig. 6 category shares.
    pub categories: CategoryPopularity,
    /// Fig. 7 rows, by bytes per usage descending, then app name.
    pub per_usage: Vec<PerUsageRow>,
}

/// One Fig. 7 row: an app's mean volume in a single usage.
#[derive(Clone, Debug, PartialEq)]
pub struct PerUsageRow {
    /// App name from the catalog (`?` for an unknown id).
    pub app: &'static str,
    /// Mean transactions per usage.
    pub tx_per_usage: f64,
    /// Mean bytes per usage.
    pub bytes_per_usage: f64,
    /// Usages observed.
    pub usages: usize,
}

impl<'a> StudyResults<'a> {
    /// Computes every eager analysis.
    pub fn new(
        ctx: &'a StudyContext<'a>,
        summaries: &NetworkSummaries,
        aggs: &'a CoreAggregates,
    ) -> StudyResults<'a> {
        StudyResults::traced(ctx, summaries, aggs, |_| ())
    }

    /// [`StudyResults::new`], holding the guard `timer(name)` returns while
    /// each store scan runs (the CLI opens a child span per scan).
    pub fn traced<G>(
        ctx: &'a StudyContext<'a>,
        summaries: &NetworkSummaries,
        aggs: &'a CoreAggregates,
        mut timer: impl FnMut(&str) -> G,
    ) -> StudyResults<'a> {
        fn scan<G, T>(timer: &mut impl FnMut(&str) -> G, name: &str, f: impl FnOnce() -> T) -> T {
            let _guard = timer(name);
            f()
        }
        let mme = &summaries.mme;
        StudyResults {
            trend: AdoptionTrend::compute(mme, &ctx.window),
            retention: CohortRetention::compute(mme, &ctx.window),
            data_active: DataActiveShare::compute(mme, &summaries.wearable_traffic, &ctx.window),
            spans: ActivitySpans::compute(ctx, &aggs.activity),
            correlation: ActivityCorrelation::compute(&aggs.activity),
            daily_active_share: scan(&mut timer, "daily_active_share", || {
                activity::daily_active_share(ctx)
            }),
            owner_vs_rest: OwnerVsRest::compute(ctx, &aggs.traffic),
            wearable_share: WearableShare::compute(ctx, &aggs.traffic),
            displacement: Displacement::compute(ctx, &aggs.mobility),
            entropy: LocationEntropy::compute(ctx, &aggs.mobility),
            mobility_activity: MobilityActivity::compute(ctx, &aggs.mobility, &aggs.activity),
            installs: InstallStats::compute(&aggs.attributed),
            domains: scan(&mut timer, "domain_breakdown", || {
                DomainBreakdown::compute(ctx)
            }),
            through_device: scan(&mut timer, "through_device", || {
                ThroughDeviceReport::compute(ctx, &aggs.mobility)
            }),
            weekly: scan(&mut timer, "weekly", || WeeklyPattern::compute(ctx)),
            devices: scan(&mut timer, "devices", || DeviceMix::compute(ctx)),
            ctx,
            aggs,
            app_figures: OnceCell::new(),
            quality: OnceCell::new(),
        }
    }

    /// The figure-only app analyses, sessionizing on the first call.
    pub fn app_figures(&self) -> &AppFigures {
        self.app_figures.get_or_init(|| {
            let sess = sessions::sessionize(&self.aggs.attributed);
            let usage = AppUsage::compute(&sess);
            let categories = CategoryPopularity::compute(self.ctx, &self.aggs.popularity, &usage);
            let mut per_usage: Vec<PerUsageRow> = PerUsage::compute(&sess)
                .by_app
                .into_iter()
                .map(|(app, (tx, bytes, n))| PerUsageRow {
                    app: self.app_name(app),
                    tx_per_usage: tx,
                    bytes_per_usage: bytes,
                    usages: n,
                })
                .collect();
            per_usage.sort_by(|a, b| {
                b.bytes_per_usage
                    .total_cmp(&a.bytes_per_usage)
                    .then(a.app.cmp(b.app))
            });
            AppFigures {
                usage,
                categories,
                per_usage,
            }
        })
    }

    /// The trace QA report, scanning the store on the first call.
    pub fn quality(&self) -> &DataQualityReport {
        self.quality
            .get_or_init(|| DataQualityReport::compute(self.ctx))
    }

    /// The catalog name of `app`, `?` for an unknown id.
    pub fn app_name(&self, app: wearscope_appdb::AppId) -> &'static str {
        self.ctx.catalog.get(app).map_or("?", |a| a.name)
    }
}
