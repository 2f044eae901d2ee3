# A bench must check its output directory before it does any work: with
# SPADEN_BENCH_DIR naming a directory that does not exist it exits non-zero
# with an error naming the directory, before generating its first matrix,
# never after the last cell in std::terminate.
#
#   cmake -DBENCH=<path to a bench binary> -DDIR=<missing directory>
#         -P bench_rejects_missing_dir.cmake
execute_process(COMMAND ${CMAKE_COMMAND} -E env SPADEN_BENCH_DIR=${DIR} SPADEN_SCALE=0.01
                        ${BENCH}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "a missing SPADEN_BENCH_DIR was accepted:\n${out}\n${err}")
endif()
string(FIND "${err}" "'${DIR}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "expected an error naming '${DIR}', got:\n${err}")
endif()
string(FIND "${err}" "[gen]" gen)
string(FIND "${err}" "terminate" term)
if(NOT gen EQUAL -1 OR NOT term EQUAL -1)
  message(FATAL_ERROR "the bench did work before failing:\n${err}")
endif()
