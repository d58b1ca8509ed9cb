package repro.bench

import repro.SparkSpec
import repro.harness.TableSpec

/** Every paper table from the shared registry, one test each: the table is
  * built, printed and written as TSV, then its paper-shape checks must all
  * pass. Run one table with `bench/testOnly repro.bench.PaperTables -- -z <id>`.
  */
class PaperTables extends SparkSpec {
  for (t <- TableSpec.all) test(s"${t.id}: ${t.title}") {
    val failed = t.run(spark)
    assert(failed.isEmpty, failed.mkString("; "))
  }
}
