//! Every derived analysis of one study, computed once.
//!
//! [`StudyResults`] is built once from the hot [`CoreAggregates`] plus the
//! vantage summaries. It reads no store: every per-record fact it needs,
//! the owners and the Fig. 4(d) sector join included, was folded into the
//! aggregates, so batch and stream results come from the same state. The
//! takeaways, the experiment table, the full report and the figure CSVs
//! all render from it.
//!
//! What the takeaways need is computed eagerly in [`StudyResults::new`]:
//! the summary analyses and the derivations over the aggregates. Only the
//! figure-only app analyses (sessions → Fig. 5(b), 6 and 7) are lazy,
//! computed at most once on the first call to
//! [`StudyResults::app_figures`], so a run that prints only the table
//! never pays for them.

use std::cell::OnceCell;

use wearscope_mobilenet::NetworkSummaries;

use crate::activity::{self, ActivityCorrelation, ActivitySpans};
use crate::adoption::{AdoptionTrend, CohortRetention, DataActiveShare};
use crate::apps::{AppUsage, CategoryPopularity, InstallStats};
use crate::compare::{OwnerVsRest, WearableShare};
use crate::context::StudyContext;
use crate::merge::CoreAggregates;
use crate::mobility::{Displacement, LocationEntropy, MobilityActivity};
use crate::sessions::{self, PerUsage};

/// The study's derived analyses over one context and one set of aggregates.
pub struct StudyResults<'a> {
    /// The study the results describe.
    pub ctx: &'a StudyContext<'a>,
    /// The hot aggregates the finish steps ran over; they also hold the
    /// weekly pattern, domain classes, device mix, Through-Device report
    /// and trace QA.
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
    app_figures: OnceCell<AppFigures>,
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
        let mme = &summaries.mme;
        StudyResults {
            trend: AdoptionTrend::compute(mme, &ctx.window),
            retention: CohortRetention::compute(mme, &ctx.window),
            data_active: DataActiveShare::compute(mme, &summaries.wearable_traffic, &ctx.window),
            spans: ActivitySpans::compute(ctx, &aggs.activity),
            correlation: ActivityCorrelation::compute(&aggs.activity),
            daily_active_share: activity::daily_active_share_of(&aggs.activity),
            owner_vs_rest: OwnerVsRest::compute(&aggs.owners, &aggs.traffic),
            wearable_share: WearableShare::compute(&aggs.owners, &aggs.traffic),
            displacement: Displacement::compute(&aggs.owners, &aggs.mobility),
            entropy: LocationEntropy::compute(&aggs.owners, &aggs.mobility),
            mobility_activity: MobilityActivity::compute(
                &aggs.mobility,
                &aggs.activity,
                &aggs.transaction_sectors,
            ),
            installs: InstallStats::compute(&aggs.attributed),
            ctx,
            aggs,
            app_figures: OnceCell::new(),
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

    /// The catalog name of `app`, `?` for an unknown id.
    pub fn app_name(&self, app: wearscope_appdb::AppId) -> &'static str {
        self.ctx.catalog.get(app).map_or("?", |a| a.name)
    }
}
