package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.TableSpec

/** Shared bootstrap for the spark-submit entrypoints: one local session per
  * job, same knobs as the bench suite (override via -Drepro.* / env).
  */
object JobRunner {
  def withSpark(name: String)(body: SparkSession => Unit): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN") // keep the printed tables readable
    try body(spark)
    finally spark.stop()
  }
}

/** Runs paper tables from the shared registry by id (`all` runs every one),
  * writing the same TSVs as the bench suite; failed paper-shape checks are
  * reported on standard error.
  */
object PaperTables {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, s"usage: PaperTables all | <id>...; ids: ${TableSpec.all.map(_.id).mkString(", ")}")
    val tables = if (args.sameElements(Seq("all"))) TableSpec.all else args.toSeq.map(TableSpec.byId)
    JobRunner.withSpark("paper_tables") { spark =>
      tables.foreach(t => t.run(spark).foreach(f => Console.err.println(s"${t.id}: shape check failed: $f")))
    }
  }
}
