# Smoke test for `strober-farm status` on a streamed run whose shard
# manifests do not exist yet (driven by ctest; see tools/CMakeLists.txt).
# A finished streamed run keeps its feed's meta header; removing the
# manifests leaves the directory as it looks while the fast sim runs.

set(dir "${WORK_DIR}/farm_status_smoke")
file(REMOVE_RECURSE ${dir})

execute_process(
    COMMAND ${FARM_CLI} run rocket vvadd --dir ${dir} -j 1
            --sample-size 8 --stream
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "streamed farm run failed (rc=${rc}): ${err}")
endif()

file(GLOB manifests "${dir}/shard_*.strbfarm")
if(NOT manifests)
    message(FATAL_ERROR "the streamed run wrote no shard manifests")
endif()
file(REMOVE ${manifests})

execute_process(
    COMMAND ${FARM_CLI} status --dir ${dir}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "status before the manifests failed (rc=${rc}): "
                        "${out}${err}")
endif()
if(NOT out MATCHES "rocket / vvadd: fast sim running")
    message(FATAL_ERROR "status does not name the streamed run: ${out}")
endif()
if(NOT out MATCHES "cache '[^']*': [1-9][0-9]* entr\\(ies\\)")
    message(FATAL_ERROR "status reports no cached results: ${out}")
endif()

# Neither manifests nor a feed: not a farm run directory.
file(REMOVE_RECURSE ${dir}/stream)
execute_process(
    COMMAND ${FARM_CLI} status --dir ${dir}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "status succeeded on a directory with no run")
endif()

file(REMOVE_RECURSE ${dir})
