"""Ray-Data-native full-text indexing + BM25 query engine.

A brand-new engine (NOT a port) with the query and data-processing
capabilities of the reference C program ``baoziiiii/InvertedIndexBuilder``
(see SURVEY.md for the verified behavioral spec).  The pipeline is
expressed Ray-Data-first:

    read_parquet -> map_batches(extract+tokenize, actor pool)
                 -> checkpointed postings parquet
                 -> groupby(hash(term) % P) . map_groups(compress, actor pool)
                 -> per-partition posting blobs + lexicon + doc table + manifest

Query evaluation (conjunctive / disjunctive / AND-NOT / CNF / MSM BM25 top-k)
runs either locally or as an actor-pool ``map_batches`` over a query table.
"""

__version__ = "0.1.0"
