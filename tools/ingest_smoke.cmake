# End-to-end ingest smoke (ctest tier1): R-MAT -> SNAP text -> atlc_ingest
# (spill path forced by a tiny memory budget) -> atlc_run --snapshot, and
# the resulting LCC/TC CSVs must be byte-identical to the in-memory
# load+clean path on the same input and seed, across partition kinds and
# rank counts (the snapshot stores no rank count), and at --seed 0 (no
# relabel on either path). One small serving run must write its stats
# document. Out-of-range numeric flags of atlc_run and atlc_ingest must exit
# 1 with a message naming the tool.
#
# Driven as: cmake -DATLC_RUN=... -DATLC_INGEST=... -DWORK_DIR=...
#                  -P ingest_smoke.cmake

foreach(var ATLC_RUN ATLC_INGEST WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ingest_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ingest_smoke: command failed (${rc}): ${ARGV}")
  endif()
endfunction()

set(seed 3)

# A seeded R-MAT proxy, written as SNAP text.
run_checked(${ATLC_RUN} --rmat-scale 8 --rmat-ef 8 --seed ${seed}
            --convert ${WORK_DIR}/g.txt)

# Ingest with a deliberately tiny budget (10 KiB against a ~32 KiB edge
# stream) so the spill/merge path runs.
run_checked(${ATLC_INGEST} --input ${WORK_DIR}/g.txt
            --output ${WORK_DIR}/g.snap --seed ${seed}
            --mem-budget-mb 0.01)

# Re-ingesting a snapshot must be rejected.
execute_process(COMMAND ${ATLC_INGEST} --input ${WORK_DIR}/g.snap
                --output ${WORK_DIR}/twice.snap RESULT_VARIABLE rc
                ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "ingest_smoke: re-ingesting a snapshot succeeded")
endif()

# --input reads SNAP text only: a snapshot must be refused, not parsed.
execute_process(COMMAND ${ATLC_RUN} --input ${WORK_DIR}/g.snap --stats-only
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "ingest_smoke: atlc_run --input accepted a snapshot")
endif()

# The out-of-core path must reproduce the in-memory path bit-for-bit, at any
# rank count: 3 ranks and the 2x3 grid of 6 ranks as well as 8.
foreach(combo "lcc;block;8" "lcc;grid2d;8" "tc;cyclic;8" "lcc;block;3"
        "tc;grid2d;6")
  list(GET combo 0 algo)
  list(GET combo 1 part)
  list(GET combo 2 ranks)
  set(tag ${algo}_${part}_${ranks})
  run_checked(${ATLC_RUN} --input ${WORK_DIR}/g.txt --seed ${seed}
              --algo ${algo} --partition ${part} --ranks ${ranks}
              --out ${WORK_DIR}/mem_${tag}.csv)
  run_checked(${ATLC_RUN} --snapshot ${WORK_DIR}/g.snap
              --algo ${algo} --partition ${part} --ranks ${ranks}
              --out ${WORK_DIR}/ooc_${tag}.csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK_DIR}/mem_${tag}.csv ${WORK_DIR}/ooc_${tag}.csv
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "ingest_smoke: ${algo}/${part} at ${ranks} ranks: CSVs differ "
            "between the in-memory and snapshot paths")
  endif()
endforeach()

# Seed 0 means "no relabel" on both paths (graph::clean_ids' one rule).
run_checked(${ATLC_INGEST} --input ${WORK_DIR}/g.txt
            --output ${WORK_DIR}/g0.snap --seed 0)
run_checked(${ATLC_RUN} --input ${WORK_DIR}/g.txt --seed 0
            --out ${WORK_DIR}/mem_seed0.csv)
run_checked(${ATLC_RUN} --snapshot ${WORK_DIR}/g0.snap
            --out ${WORK_DIR}/ooc_seed0.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/mem_seed0.csv ${WORK_DIR}/ooc_seed0.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "ingest_smoke: --seed 0: CSVs differ between atlc_ingest and "
          "atlc_run --input")
endif()

# The serving mode: a small query/update run writes its stats document.
run_checked(${ATLC_RUN} --serve-epochs 2 --rmat-scale 8 --stats-only
            --stats-json ${WORK_DIR}/serve.json)
if(NOT EXISTS ${WORK_DIR}/serve.json)
  message(FATAL_ERROR "ingest_smoke: --serve-epochs wrote no --stats-json")
endif()

# Out-of-range numeric flags are refused before any unsigned or
# floating-point conversion. (--ranks -1 is left out on purpose: a build
# without the check would ask for 2^32 - 1 rank threads.)
foreach(cmd "${ATLC_RUN};--ranks;0;--rmat-scale;4"
        "${ATLC_RUN};--cache-frac;-0.5;--rmat-scale;4"
        "${ATLC_RUN};--pipeline-depth;0;--rmat-scale;4"
        "${ATLC_RUN};--batch-size;0;--rmat-scale;4"
        "${ATLC_RUN};--rmat-scale;40"
        "${ATLC_RUN};--rmat-ef;0;--rmat-scale;4"
        "${ATLC_RUN};--hub-frac;nan;--rmat-scale;4"
        "${ATLC_RUN};--stream-insert-frac;5;--rmat-scale;4"
        "${ATLC_RUN};--zipf;nan;--rmat-scale;4"
        "${ATLC_RUN};--serve-epochs;2;--ranks;0;--rmat-scale;4"
        "${ATLC_RUN};--serve-epochs;2;--hot-entries;-1;--rmat-scale;4"
        "${ATLC_INGEST};--input;${WORK_DIR}/g.txt;--output;${WORK_DIR}/x.snap;--chunk-mb;-1"
        "${ATLC_INGEST};--input;${WORK_DIR}/g.txt;--output;${WORK_DIR}/x.snap;--mem-budget-mb;-1")
  list(GET cmd 0 tool)
  get_filename_component(tool_name ${tool} NAME_WE)
  execute_process(COMMAND ${cmd} RESULT_VARIABLE rc ERROR_VARIABLE err
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "^${tool_name}: --")
    message(FATAL_ERROR
            "ingest_smoke: expected exit 1 and a '${tool_name}: --' "
            "message from: ${cmd} (got ${rc}: ${err})")
  endif()
endforeach()

# The serving mode refuses the options it cannot honour, after the load.
foreach(clash "--stream-batches;2" "--partition;grid2d" "--directed"
        "--algo;tc")
  execute_process(COMMAND ${ATLC_RUN} --serve-epochs 2 --rmat-scale 4 ${clash}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "atlc_run: --serve-epochs does not")
    message(FATAL_ERROR
            "ingest_smoke: expected --serve-epochs to refuse ${clash} "
            "(got ${rc}: ${err})")
  endif()
endforeach()

message(STATUS "ingest_smoke: all snapshot-path CSVs bit-identical")
