package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** The one spark-submit entry point: `spark-submit --class repro.jobs.GenTables
  * repro.jar [3|5|6|8]...`; no argument regenerates every table. Table III
  * comes with Table IV's header and Table VIII with Table VII's. Scale with
  * `SAFE_REPEATS` (Table III), `SAFE_STAB_T` (Table VI) and `SAFE_BIZ_ROWS`
  * (Table VIII); Table VIII runs on `SPARK_MASTER` (default `local[*]`).
  */
object GenTables {
  private val Ids = Seq("3", "5", "6", "8")

  def main(args: Array[String]): Unit = {
    val which = if (args.isEmpty) Ids else args.toSeq
    val unknown = which.filterNot(Ids.contains)
    require(unknown.isEmpty, s"unknown table ${unknown.mkString(", ")} (use ${Ids.mkString(", ")})")
    which.foreach {
      case "3" => Tables.tableIV(println); println(); Tables.tableIII(println)
      case "5" => Tables.tableV(println)
      case "6" => Tables.tableVI(println)
      case _ =>
        val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
          .appName("safe-table8").config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()
        try { Tables.tableVII(println); println(); Tables.tableVIII(spark, println) }
        finally spark.stop()
    }
  }
}
