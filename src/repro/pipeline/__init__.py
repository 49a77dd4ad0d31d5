"""The paper's three-step collection pipeline (§III-A).

1. **Collect** — filter a tweet stream with the Context × Subject keyword
   set Q (:mod:`repro.pipeline.collect`).
2. **Augment** — attach a location to every tweet, preferring the GPS
   geo-tag and falling back to geocoding the profile location string
   (:mod:`repro.pipeline.augment`).
3. **Filter** — retain only tweets from users located in the USA
   (:mod:`repro.pipeline.usfilter`).

:mod:`repro.pipeline.batch` chains the three steps into the one funnel
every execution mode drives; :class:`repro.pipeline.runner.CollectionPipeline`
runs it serially or sharded and keeps provenance counters for every drop
reason.
"""

from repro.pipeline.augment import augment_location
from repro.pipeline.collect import collect
from repro.pipeline.parallel import process_shard, run_sharded, shard_by_id
from repro.pipeline.runner import CollectionPipeline, PipelineReport
from repro.pipeline.usfilter import is_us_located

__all__ = [
    "CollectionPipeline",
    "PipelineReport",
    "augment_location",
    "collect",
    "is_us_located",
    "process_shard",
    "run_sharded",
    "shard_by_id",
]
