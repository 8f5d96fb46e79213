package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.tables._
import repro.data.DatasetSpec
import repro.embed.ClipSim

/** Shared spark-submit bootstrap for the jobs. */
object JobSession {
  def create(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}

/** Runs the one-time preprocessing pipeline (paper §2.4) for each corpus and
  * writes the patch-vector tables as Parquet under the given output dir.
  * Usage: PreprocessJob [outDir] [sf]
  */
object PreprocessJob {
  def main(args: Array[String]): Unit = {
    val out = args.headOption.getOrElse("/tmp/seesaw-vectors")
    val sf = args.lift(1).map(_.toDouble).getOrElse(DatasetSpec.BenchSf)
    val spark = JobSession.create("seesaw-preprocess")
    try {
      DatasetSpec.all().foreach { spec =>
        val df = ClipSim.patchVectors(spark, spec, sf, multiscale = true)
        df.write.mode("overwrite").parquet(s"$out/${spec.name.toLowerCase}")
        println(s"[preprocess] ${spec.name}: ${df.count()} patch vectors -> $out/${spec.name.toLowerCase}")
      }
    } finally spark.stop()
  }
}

/** Regenerates one paper table: prints its published values, then the
  * measured ones. Usage: TableJob <2|3|4|5|6|7> [sf, or Table 6's size
  * multiplier]. An unknown table is rejected before Spark starts.
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val (paper, measure) = table(args)
    val spark = JobSession.create(s"seesaw-table${args(0)}")
    try {
      println(paper)
      println(measure(spark))
    } finally spark.stop()
  }

  /** The published text of the table `args(0)` names, and the computation
    * of its measured text at the scale `args(1)` gives.
    */
  private def table(args: Array[String]): (String, SparkSession => String) = {
    val arg = args.lift(1).map(_.toDouble)
    val sf = arg.getOrElse(DatasetSpec.BenchSf)
    args.headOption match {
      case Some("2") => (Table2.Paper, Table2.compute(_, sf).render)
      case Some("3") => (Table3.Paper, Table3.compute(_, sf).render)
      case Some("4") => (Table4.Paper, Table4.compute(_, sf).render)
      case Some("5") => (Table5.Paper, Table5.compute(_, sf).render)
      case Some("6") => (Table6.Paper, spark => arg.fold(Table6.compute(spark))(Table6.compute(spark, _)).render)
      case Some("7") => (Table7.Paper, Table7.compute(_, sf).render)
      case _ => throw new IllegalArgumentException(
        "usage: TableJob <2|3|4|5|6|7> [sf, or Table 6's size multiplier]")
    }
  }
}
